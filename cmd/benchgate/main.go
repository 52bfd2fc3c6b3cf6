// Command benchgate gates CI on benchmark regressions: it parses
// `go test -bench` output, aggregates repeated runs (-count N) by
// taking the fastest ns/op per benchmark, compares against a
// checked-in baseline, and exits nonzero when any gated benchmark
// regressed by more than the threshold. The baseline may additionally
// declare ratio gates — bounds on the quotient of two measured
// benchmarks (e.g. warm-reuse vs cold ns/op) — which are
// hardware-independent and therefore survive runner CPU changes that
// invalidate every absolute number, and allocs/op ceilings, read from
// `-benchmem` lines (fewest allocs/op over the repeated runs), which
// are hardware-independent too. It also writes a JSON report
// (the CI workflow uploads it as an artifact), so every run leaves a
// machine-readable record of the measured numbers next to the
// baseline they were judged against.
//
// Usage:
//
//	go test -run '^$' -bench 'BenchmarkEngineReuse' -count 5 . | tee bench.txt
//	go run ./cmd/benchgate -baseline .github/bench-baseline.json -out BENCH_pr2.json bench.txt
//
// Refresh the baseline after an intentional performance change (or a
// CI hardware change) with -update, which rewrites the baseline file
// from the measured numbers instead of gating:
//
//	go run ./cmd/benchgate -baseline .github/bench-baseline.json -update bench.txt
//
// Only benchmarks named in the baseline are gated; extra measured
// benchmarks are reported informationally, and a baseline entry that
// the run did not produce is an error (a silently skipped gate would
// otherwise pass forever) — for an allocs/op ceiling, that includes a
// benchmark run without -benchmem.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// benchLine matches one `go test -bench` result line, e.g.
//
//	BenchmarkEngineReuse/RXRYRY/facts=20-4   20038   12608 ns/op
//	BenchmarkTierSAT/facts=1000-4   150   1164369 ns/op   530112 B/op   2210 allocs/op
//
// The trailing -N (GOMAXPROCS) is stripped; it is omitted entirely
// when GOMAXPROCS=1, so it is optional. The allocs/op group matches
// only on -benchmem lines.
var benchLine = regexp.MustCompile(`^(Benchmark[^\s]+?)(?:-\d+)?\s+\d+\s+([0-9.]+) ns/op(?:.*?\s([0-9.]+) allocs/op)?`)

// Baseline is the checked-in reference: fastest observed ns/op per
// gated benchmark, plus a note describing the hardware it was
// measured on, plus hardware-independent ratio gates.
type Baseline struct {
	Note    string             `json:"note,omitempty"`
	CPU     string             `json:"cpu,omitempty"`
	NsPerOp map[string]float64 `json:"ns_per_op"`
	// Ratios are gates on measured-vs-measured quotients, so they keep
	// their meaning when the runner hardware changes (absolute ns/op
	// does not). -update preserves them verbatim: they are policy, not
	// measurements.
	Ratios []RatioGate `json:"ratios,omitempty"`
	// AllocsPerOp are ceilings on the allocs/op of the named benchmarks,
	// which must run with -benchmem. Like Ratios they are policy that
	// -update preserves.
	AllocsPerOp map[string]float64 `json:"allocs_per_op,omitempty"`
}

// RatioGate asserts that the measured ns/op ratio numerator/denominator
// stays at or below Max. Both benchmarks must be present in the run.
type RatioGate struct {
	Name string  `json:"name"`
	Num  string  `json:"numerator"`
	Den  string  `json:"denominator"`
	Max  float64 `json:"max"`
}

// Report is the JSON artifact written by -out.
type Report struct {
	CPU         string                 `json:"cpu,omitempty"`
	Threshold   float64                `json:"threshold"`
	Pass        bool                   `json:"pass"`
	Results     map[string]BenchResult `json:"results"`
	Ratios      map[string]RatioResult `json:"ratios,omitempty"`
	Allocs      map[string]AllocResult `json:"allocs,omitempty"`
	Regressions []string               `json:"regressions,omitempty"`
	Ungated     map[string]float64     `json:"ungated,omitempty"`
}

// BenchResult is one gated benchmark in the report.
type BenchResult struct {
	NsPerOp  float64 `json:"ns_per_op"`
	Baseline float64 `json:"baseline_ns_per_op"`
	Ratio    float64 `json:"ratio"`
}

// RatioResult is one ratio gate in the report.
type RatioResult struct {
	Numerator   float64 `json:"numerator_ns_per_op"`
	Denominator float64 `json:"denominator_ns_per_op"`
	Ratio       float64 `json:"ratio"`
	Max         float64 `json:"max"`
}

// AllocResult is one allocs/op ceiling in the report.
type AllocResult struct {
	AllocsPerOp float64 `json:"allocs_per_op"`
	Max         float64 `json:"max"`
}

// measurements are the parsed results of a benchmark run: per
// benchmark, the fastest ns/op and the fewest allocs/op (the latter
// only for -benchmem lines) over its repeated runs, plus the cpu model.
type measurements struct {
	ns     map[string]float64
	allocs map[string]float64
	cpu    string
}

func main() {
	basePath := flag.String("baseline", ".github/bench-baseline.json", "checked-in baseline JSON")
	outPath := flag.String("out", "", "write a JSON report of the comparison")
	threshold := flag.Float64("threshold", 0.25, "maximum tolerated ns/op regression (0.25 = +25%)")
	update := flag.Bool("update", false, "rewrite the baseline from the measured numbers instead of gating")
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: benchgate [flags] bench.txt...")
		os.Exit(2)
	}
	m, err := parseFiles(flag.Args())
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(2)
	}
	measured, cpu := m.ns, m.cpu
	if len(measured) == 0 {
		fmt.Fprintln(os.Stderr, "benchgate: no benchmark results found in input")
		os.Exit(2)
	}

	if *update {
		// Merge into an existing baseline rather than replacing it: a
		// partial benchmark run must not silently drop the other gated
		// benchmarks from coverage.
		next := Baseline{
			Note:    "fastest ns/op per gated benchmark; refresh with: go run ./cmd/benchgate -update (see cmd/benchgate)",
			CPU:     cpu,
			NsPerOp: measured,
		}
		if raw, err := os.ReadFile(*basePath); err == nil {
			var prev Baseline
			if err := json.Unmarshal(raw, &prev); err != nil {
				fmt.Fprintf(os.Stderr, "benchgate: %s: %v\n", *basePath, err)
				os.Exit(2)
			}
			kept := 0
			for name, ns := range prev.NsPerOp {
				if _, ok := next.NsPerOp[name]; !ok {
					next.NsPerOp[name] = ns
					kept++
				}
			}
			if kept > 0 {
				fmt.Printf("benchgate: kept %d baseline benchmarks not present in this run\n", kept)
			}
			next.Ratios = prev.Ratios
			next.AllocsPerOp = prev.AllocsPerOp
		}
		if err := writeJSON(*basePath, next); err != nil {
			fmt.Fprintln(os.Stderr, "benchgate:", err)
			os.Exit(2)
		}
		fmt.Printf("benchgate: baseline %s updated with %d benchmarks\n", *basePath, len(measured))
		return
	}

	raw, err := os.ReadFile(*basePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(2)
	}
	var base Baseline
	if err := json.Unmarshal(raw, &base); err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %s: %v\n", *basePath, err)
		os.Exit(2)
	}
	// Absolute ns/op across different CPUs is apples-to-oranges: on a
	// hardware mismatch the absolute comparisons are reported but only
	// the ratio gates (which are hardware-independent) and coverage
	// errors decide pass/fail.
	cpuMatch := base.CPU == "" || cpu == "" || base.CPU == cpu
	if !cpuMatch {
		fmt.Fprintf(os.Stderr, "benchgate: WARNING: baseline cpu %q != measured cpu %q; absolute gates are informational for this run (ratio gates still enforce); refresh with -update if the runner hardware changed\n",
			base.CPU, cpu)
	}

	report := Report{
		CPU:       cpu,
		Threshold: *threshold,
		Pass:      true,
		Results:   make(map[string]BenchResult),
		Ungated:   make(map[string]float64),
	}
	var names []string
	for name := range base.NsPerOp {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		baseNs := base.NsPerOp[name]
		got, ok := measured[name]
		if !ok {
			fmt.Fprintf(os.Stderr, "benchgate: baseline benchmark %q was not run\n", name)
			report.Pass = false
			report.Regressions = append(report.Regressions, name+" (not run)")
			continue
		}
		ratio := got / baseNs
		report.Results[name] = BenchResult{NsPerOp: got, Baseline: baseNs, Ratio: ratio}
		status := "ok"
		if ratio > 1+*threshold {
			if cpuMatch {
				status = fmt.Sprintf("REGRESSION (>%.0f%%)", *threshold*100)
				report.Pass = false
				report.Regressions = append(report.Regressions, name)
			} else {
				status = fmt.Sprintf("over +%.0f%% (informational: cpu mismatch)", *threshold*100)
			}
		}
		fmt.Printf("%-55s %12.1f ns/op  baseline %12.1f  ratio %5.2f  %s\n",
			name, got, baseNs, ratio, status)
	}
	// Ratio gates: hardware-independent quotients of two measured
	// benchmarks, robust to runner CPU changes.
	if len(base.Ratios) > 0 {
		report.Ratios = make(map[string]RatioResult)
	}
	for _, rg := range base.Ratios {
		num, okN := measured[rg.Num]
		den, okD := measured[rg.Den]
		if !okN || !okD {
			missing := rg.Num
			if okN {
				missing = rg.Den
			}
			fmt.Fprintf(os.Stderr, "benchgate: ratio gate %q: benchmark %q was not run\n", rg.Name, missing)
			report.Pass = false
			report.Regressions = append(report.Regressions, rg.Name+" (not run)")
			continue
		}
		ratio := num / den
		report.Ratios[rg.Name] = RatioResult{Numerator: num, Denominator: den, Ratio: ratio, Max: rg.Max}
		status := "ok"
		if ratio > rg.Max {
			status = fmt.Sprintf("RATIO REGRESSION (>%.3g)", rg.Max)
			report.Pass = false
			report.Regressions = append(report.Regressions, rg.Name)
		}
		fmt.Printf("%-55s %12.4f ratio     max %12.4f              %s\n", rg.Name, ratio, rg.Max, status)
	}
	gateAllocs(base.AllocsPerOp, m.allocs, &report)
	for name, got := range measured {
		if _, gated := base.NsPerOp[name]; !gated {
			report.Ungated[name] = got
		}
	}

	if *outPath != "" {
		if err := writeJSON(*outPath, report); err != nil {
			fmt.Fprintln(os.Stderr, "benchgate:", err)
			os.Exit(2)
		}
	}
	if !report.Pass {
		fmt.Fprintf(os.Stderr, "benchgate: FAIL: %s\n", strings.Join(report.Regressions, ", "))
		os.Exit(1)
	}
	fmt.Printf("benchgate: PASS (%d gated benchmarks within +%.0f%% of baseline, %d ratio gates, %d allocs/op ceilings)\n",
		len(report.Results), *threshold*100, len(report.Ratios), len(report.Allocs))
}

// gateAllocs checks each allocs/op ceiling against the measured
// allocs/op, recording every result in report; a benchmark over its
// ceiling, or not measured with -benchmem, fails the report.
func gateAllocs(ceilings, allocs map[string]float64, report *Report) {
	if len(ceilings) > 0 {
		report.Allocs = make(map[string]AllocResult)
	}
	var names []string
	for name := range ceilings {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		ceiling := ceilings[name]
		got, ok := allocs[name]
		if !ok {
			fmt.Fprintf(os.Stderr, "benchgate: allocs/op ceiling for %q: no -benchmem result\n", name)
			report.Pass = false
			report.Regressions = append(report.Regressions, name+" allocs/op (not run)")
			continue
		}
		report.Allocs[name] = AllocResult{AllocsPerOp: got, Max: ceiling}
		status := "ok"
		if got > ceiling {
			status = fmt.Sprintf("ALLOCS REGRESSION (>%.0f)", ceiling)
			report.Pass = false
			report.Regressions = append(report.Regressions, name+" allocs/op")
		}
		fmt.Printf("%-55s %12.0f allocs/op max %12.0f              %s\n", name, got, ceiling, status)
	}
}

// parseFiles parses every given `go test -bench` output file.
func parseFiles(paths []string) (measurements, error) {
	m := measurements{ns: make(map[string]float64), allocs: make(map[string]float64)}
	for _, path := range paths {
		f, err := os.Open(path)
		if err != nil {
			return m, err
		}
		err = parse(f, &m)
		f.Close()
		if err != nil {
			return m, fmt.Errorf("%s: %w", path, err)
		}
	}
	return m, nil
}

// parse adds the results of one `go test -bench` output to m, keeping
// the fastest ns/op and the fewest allocs/op per benchmark name.
func parse(r io.Reader, m *measurements) error {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "cpu: "); ok {
			m.cpu = strings.TrimSpace(rest)
			continue
		}
		g := benchLine.FindStringSubmatch(line)
		if g == nil {
			continue
		}
		if ns, err := strconv.ParseFloat(g[2], 64); err == nil {
			if prev, ok := m.ns[g[1]]; !ok || ns < prev {
				m.ns[g[1]] = ns
			}
		}
		if g[3] == "" {
			continue
		}
		if a, err := strconv.ParseFloat(g[3], 64); err == nil {
			if prev, ok := m.allocs[g[1]]; !ok || a < prev {
				m.allocs[g[1]] = a
			}
		}
	}
	return sc.Err()
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
