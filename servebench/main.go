// Command servebench is the end-to-end benchmark of `cqa serve`: it
// runs the daemon built from ./cmd/cqa as a child process under one of
// three seeded workloads (warm-read, churn, giant), drives it with a
// closed-loop load generator of at most two connections, checks every
// answer against an in-process reference, and prints every metric by
// name and unit. With --trace 1 it instead replays the same scripts in
// process with spans around each layer and prints the per-layer
// metrics. README.md defines the metrics and the workloads.
//
// Usage (from the repository root; run.sh builds both binaries):
//
//	bash servebench/run.sh --workload churn --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

// setupRepeats is how many times a run sets up a fresh daemon; setup_s
// is the median, and the timed phase runs on the last daemon, in rounds
// slices. Five set-ups, not more, keep a run on a slowed host short
// enough for the benchmark's time budget.
const (
	setupRepeats = 5
	rounds       = 5
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: warm-read, churn or giant")
	seed := flag.Int64("seed", 1, "input seed; the same seed gives the same inputs and the same work")
	seconds := flag.Float64("seconds", 10, "sizes the timed phase: a fixed number of operations that takes about this long")
	trace := flag.Int("trace", 0, "1: run the traced in-process replay and report the per-layer metrics")
	bin := flag.String("cqa", "", "the cqa binary built from ./cmd/cqa (required unless --trace 1)")
	spansDir := flag.String("spans-dir", "", "with --trace 1, write the spans as gzipped CSV into this directory")
	flag.Parse()
	if err := run(context.Background(), os.Stdout, *name, *seed, *seconds, *trace == 1, *bin, *spansDir); err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, out io.Writer, name string, seed int64, seconds float64, traced bool, bin, spansDir string) error {
	if !traced && bin == "" {
		return errors.New("--cqa is required without --trace 1")
	}
	b, err := newBench(name, seed, seconds)
	if err != nil {
		return err
	}
	var res result
	if traced {
		res, err = runTraced(ctx, out, b, spansDir)
	} else {
		res, err = runServed(ctx, out, b, bin)
	}
	if err != nil {
		return err
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(out, "metric %-34s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, string(line))
	return nil
}

// phaseLists returns each client's ops of one phase.
func phaseLists(b *bench, phase func(*script) []op) [][]op {
	out := make([][]op, len(b.clients))
	for c, s := range b.clients {
		out[c] = phase(s)
	}
	return out
}

// setupLists splits set-up in two. The registrations go first, one at a
// time and round robin over the clients, so that the router's
// least-assigned placement puts the same instances on the same fast-lane
// worker in every run (each client's instances on a worker of their
// own); with concurrent registration the placement varied, and so did
// the median latency of whole runs. The warm-up pass follows, all
// clients at once.
func setupLists(b *bench) (regs, warm [][]op) {
	n := make([]int, len(b.clients)) // each client's registrations lead its set-up
	warm = make([][]op, len(b.clients))
	total := 0
	for c, s := range b.clients {
		for n[c] < len(s.setup) && s.setup[n[c]].kind == opRegister {
			n[c]++
		}
		warm[c] = s.setup[n[c]:]
		total += n[c]
	}
	var order []op
	for i := 0; len(order) < total; i++ {
		for c, s := range b.clients {
			if i < n[c] {
				order = append(order, s.setup[i])
			}
		}
	}
	return [][]op{order}, warm
}

// runServed measures b end to end against the daemon binary bin.
func runServed(ctx context.Context, out io.Writer, b *bench, bin string) (result, error) {
	ref, _, err := expect(ctx, b, false)
	if err != nil {
		return result{}, err
	}
	regs, warm := setupLists(b)
	timed := phaseLists(b, func(s *script) []op { return s.timed })
	setupTally, timedTally := newTally(), newTally()

	pl, err := newPlacement()
	if err != nil {
		return result{}, err
	}
	// Unpinning matters only to a traced run later in the same process
	// (the smoke test), which a failure here merely slows.
	defer pl.release()
	var d *daemon
	var setups []float64
	host := newHostSpeed()
	for k := 0; k < setupRepeats; k++ {
		if d != nil {
			d.stop()
		}
		if d, err = startDaemon(ctx, bin, pl); err != nil {
			return result{}, err
		}
		if err := host.measure(pl); err != nil {
			d.stop()
			return result{}, err
		}
		var wall time.Duration
		for _, part := range [][][]op{regs, warm} {
			replies, w := drive(ctx, d, part)
			checkAll(setupTally, b, part, replies)
			wall += w
		}
		setups = append(setups, wall.Seconds())
	}
	defer d.stop()

	m0, err := d.metrics()
	if err != nil {
		return result{}, err
	}
	// The timed phase runs in rounds, each a slice of every client's
	// script; throughput, CPU per decision and both latency percentiles
	// are the medians of the per-round figures, so a burst of host noise
	// that hits one round does not move them.
	var query, mutate []time.Duration
	var rates, cpus, p50s, p95s []float64
	var wall time.Duration
	ms := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
	if err := d.waitIdle(); err != nil {
		return result{}, err
	}
	if err := host.measure(pl); err != nil {
		return result{}, err
	}
	for r := 0; r < rounds; r++ {
		seg := make([][]op, len(timed))
		for c, ops := range timed {
			seg[c] = ops[len(ops)*r/rounds : len(ops)*(r+1)/rounds]
		}
		cpu0, err := d.procCPU()
		if err != nil {
			return result{}, err
		}
		replies, w := drive(ctx, d, seg)
		cpu1, err := d.procCPU()
		if err != nil {
			return result{}, err
		}
		if err := d.waitIdle(); err != nil {
			return result{}, err
		}
		if err := host.measure(pl); err != nil {
			return result{}, err
		}
		before := timedTally.correct
		checkAll(timedTally, b, seg, replies)
		decisions := float64(timedTally.correct - before)
		q, m := latencies(seg, replies)
		query, mutate = append(query, q...), append(mutate, m...)
		wall += w
		if decisions > 0 {
			rates = append(rates, decisions/w.Seconds())
			cpus = append(cpus, float64((cpu1-cpu0).Microseconds())/decisions)
		}
		if v, ok := percentile(q, 0.50); ok {
			p50s = append(p50s, ms(v))
		}
		if v, ok := percentile(q, 0.95); ok {
			p95s = append(p95s, ms(v))
		}
	}
	m1, err := d.metrics()
	if err != nil {
		return result{}, err
	}
	rss, err := d.peakRSS()
	if err != nil {
		return result{}, err
	}

	got := phaseCounters{Setup: sameWork(m0), Timed: sameWork(m1).sub(sameWork(m0))}
	valid := got == ref
	fmt.Fprintf(out, "workload %s: %d clients, setup runs %v s, timed wall %.3f s in %d rounds\n", b.name, len(b.clients), setups, wall.Seconds(), rounds)
	fmt.Fprintf(out, "per round: decisions/s %.1f, cpu us/decision %.1f, query p50 ms %.3f\n", rates, cpus, p50s)
	printCounters(out, "reference", ref)
	printCounters(out, "daemon", got)
	if !valid {
		fmt.Fprintln(out, "INVALID: the same-work counters differ from the seed's reference, so this run did other work than its seed prescribes")
	}

	res := result{Metrics: map[string]metric{}}
	a1, f1 := setupTally.totals()
	a2, f2 := timedTally.totals()
	res.Attempted, res.Failed = a1+a2, f1+f2
	res.Correct = valid && setupTally.wrong()+timedTally.wrong() == 0
	printTally(out, "setup", setupTally)
	printTally(out, "timed", timedTally)

	// Times in the result line are scaled to the nominal host speed
	// (calib.go); the measured figures are printed here.
	slow := host.slowdown()
	fmt.Fprintf(out, "host speed: %d probe runs, CPU time/nominal median %.4f\n", len(host.cpus), slow)
	fmt.Fprintf(out, "measured: setup_s %.6g s, decisions_per_s %.6g 1/s, query_p50_ms %.6g ms, query_p95_ms %.6g ms, cpu_us_per_decision %.6g us\n",
		median(setups), median(rates), median(p50s), median(p95s), median(cpus))
	res.Metrics["setup_s"] = metric{median(setups) / slow, "s"}
	if len(rates) == rounds {
		res.Metrics["decisions_per_s"] = metric{median(rates) * slow, "1/s"}
		res.Metrics["cpu_us_per_decision"] = metric{median(cpus) / slow, "us"}
	}
	if len(p50s) == rounds {
		res.Metrics["query_p50_ms"] = metric{median(p50s) / slow, "ms"}
	}
	res.Metrics["peak_rss_mb"] = metric{rss, "MiB"}
	if len(p95s) == rounds {
		res.Metrics["query_p95_ms"] = metric{median(p95s) / slow, "ms"}
		fmt.Fprintf(out, "query_p95_ms is the median over rounds of p95 of %d query requests per round: %.3f\n", len(query)/rounds, p95s)
	}
	if v, p, ok := tail(query); ok {
		fmt.Fprintf(out, "whole timed phase: p%g of %d query requests %.4f ms\n", 100*p, len(query), ms(v))
	}
	// Mutation latency is reported here, not in the result line: the
	// warm-read workload has no writes.
	if v, ok := percentile(mutate, 0.50); ok {
		fmt.Fprintf(out, "mutate_p50_ms %.4f of %d mutate requests\n", ms(v), len(mutate))
	}
	if v, ok := percentile(mutate, 0.99); ok {
		fmt.Fprintf(out, "mutate_p99_ms %.4f of %d mutate requests\n", ms(v), len(mutate))
	}
	return res, nil
}

func checkAll(t *tally, b *bench, lists [][]op, replies [][]reply) {
	for c, ops := range lists {
		for i := range ops {
			t.check(b, &ops[i], replies[c][i])
		}
	}
}

func printCounters(out io.Writer, who string, p phaseCounters) {
	data, _ := json.Marshal(p) // plain integer fields always marshal
	fmt.Fprintf(out, "same-work counters (%s): %s\n", who, data)
}

func printTally(out io.Writer, phase string, t *tally) {
	a, f := t.totals()
	fmt.Fprintf(out, "%s: attempted %d (register %d, query lines %d, mutate %d, drop %d), failed %d, failures: %s\n",
		phase, a, t.attempted["register"], t.attempted["query_line"], t.attempted["mutate"], t.attempted["drop"], f, t.describeFailures())
	classes := make([]string, 0, len(t.byClass))
	for c := range t.byClass {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	for _, c := range classes {
		fmt.Fprintf(out, "%s: yes share %-15s %.3f of %d decisions\n", phase, c, float64(t.yes[c])/float64(t.byClass[c]), t.byClass[c])
	}
}
