#!/usr/bin/env bash
# Builds the benchmark harness and the cqa daemon from this checkout,
# then runs the harness with the given arguments, e.g.
#
#   bash servebench/run.sh --workload churn --seed 1 --seconds 10 --trace 0
#
# Run it from the root of a checkout. Build outputs, the Go build cache
# and span files go to .bench_build/ in the checkout.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/cqa || ! -f servebench/go.mod ]]; then
	echo "servebench: run from the root of a cqa checkout (go.mod, cmd/cqa and servebench/ are required)" >&2
	exit 2
fi

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
# Keep the toolchain inside the checkout and offline: no user go env
# file, telemetry counters under .bench_build/, no toolchain or module
# downloads.
export GOCACHE="$out/go-cache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOENV=off GOTOOLCHAIN=local GOPROXY=off
go -C servebench build -o "$out/servebench" .
go -C servebench build -o "$out/cqa" cqa/cmd/cqa
exec "$out/servebench" --cqa "$out/cqa" --spans-dir "$out" "$@"
