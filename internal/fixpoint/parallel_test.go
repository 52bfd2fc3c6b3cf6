package fixpoint

import (
	"context"
	"fmt"
	"testing"
	"time"

	"cqa/internal/instance"
	"cqa/internal/words"
	"cqa/internal/workload"
)

// equivCases is the instance family grid for the parallel-vs-sequential
// oracle: random block-structured instances at several densities, deep
// chains (which exercise the sequential-drain fallback), and the
// paper's Figure 2/3 families.
func equivCases() []struct {
	name string
	db   *instance.Instance
} {
	rnd := func(seed int64, consts, facts int, conflict float64) *instance.Instance {
		return workload.Random(workload.Config{
			Relations:    []string{"R", "X", "Y", "A"},
			Constants:    consts,
			Facts:        facts,
			ConflictRate: conflict,
			Seed:         seed,
		})
	}
	return []struct {
		name string
		db   *instance.Instance
	}{
		{"random-small", rnd(1, 40, 120, 0.4)},
		{"random-mid", rnd(2, 300, 1500, 0.3)},
		{"random-dense", rnd(3, 50, 800, 0.8)},
		{"chain-deep", workload.Chain(words.MustParse("RRX"), 400)},
		{"figure2", workload.Figure2Family(200)},
		{"figure3", workload.Figure3Family(60)},
		{"empty", instance.New()},
	}
}

// TestSolveParallelEquivalence checks the partitioned solver against
// the sequential worklist as oracle: identical Certain, Starts, start
// bitset, and full relation N, across queries of every class and
// several worker counts, on instances of any size.
func TestSolveParallelEquivalence(t *testing.T) {
	queries := []string{"R", "RRX", "RXRX", "RXRYRY", "RRRRRRRRX", "AXRRY"}
	for _, qs := range queries {
		q := words.MustParse(qs)
		for _, tc := range equivCases() {
			iv := tc.db.Interned()
			want := Compile(q).SolveInterned(iv)
			for _, workers := range []int{2, 3, 8} {
				t.Run(fmt.Sprintf("%s/%s/workers=%d", qs, tc.name, workers), func(t *testing.T) {
					// A fresh Compiled per run so the parallel binding build
					// (not a memo hit on the oracle's) is exercised.
					cp := Compile(q)
					got, err := cp.SolveBound(context.Background(), iv, cp.Bind(iv, workers), workers)
					if err != nil {
						t.Fatalf("parallel solve: %v", err)
					}
					if got.Certain != want.Certain {
						t.Fatalf("Certain = %v, want %v", got.Certain, want.Certain)
					}
					if len(got.Starts) != len(want.Starts) {
						t.Fatalf("Starts = %v, want %v", got.Starts, want.Starts)
					}
					for i := range got.Starts {
						if got.Starts[i] != want.Starts[i] {
							t.Fatalf("Starts = %v, want %v", got.Starts, want.Starts)
						}
					}
					if !got.startBits.Equal(want.startBits) {
						t.Fatalf("start bitsets differ")
					}
					if !got.bits.Equal(want.bits) {
						t.Fatalf("relation N bitsets differ")
					}
					if iv.NumConsts() > 0 {
						if s := cp.ParallelStats(); s.Solves != 1 || s.Shards == 0 {
							t.Fatalf("ParallelStats = %+v, want one engaged solve", s)
						}
					}
				})
			}
		}
	}
}

// TestSolveParallelDisengaged checks that a worker count of at most 1
// keeps the single-core path (no engaged-solve counters) while
// returning the same result. Which snapshots get more than one worker
// is the plan's rule (internal/plan's TestSolveWorkersRule).
func TestSolveParallelDisengaged(t *testing.T) {
	q := words.MustParse("RRX")
	db := workload.Figure2Family(50)
	iv := db.Interned()
	want := Compile(q).SolveInterned(iv)
	for _, workers := range []int{0, 1} {
		cp := Compile(q)
		got, err := cp.SolveBound(context.Background(), iv, cp.Bind(iv, workers), workers)
		if err != nil {
			t.Fatalf("workers %d: %v", workers, err)
		}
		if got.Certain != want.Certain || !got.bits.Equal(want.bits) {
			t.Fatalf("workers %d: sequential-path result differs", workers)
		}
		if s := cp.ParallelStats(); s.Solves != 0 || s.Shards != 0 {
			t.Fatalf("workers %d: ParallelStats = %+v, want zero", workers, s)
		}
	}
}

// stepCtx is a context whose Err flips to Canceled after limit polls;
// it makes the mid-solve cancellation point deterministic (the
// partitioned loop polls once per round).
type stepCtx struct {
	calls, limit int
}

func (c *stepCtx) Deadline() (time.Time, bool) { return time.Time{}, false }
func (c *stepCtx) Done() <-chan struct{}       { return nil }
func (c *stepCtx) Value(any) any               { return nil }
func (c *stepCtx) Err() error {
	c.calls++
	if c.calls > c.limit {
		return context.Canceled
	}
	return nil
}

// TestSolveParallelCancellation cancels between rounds of the
// partitioned loop and checks the solve aborts with the context error,
// without poisoning the binding it solved on for a retry.
func TestSolveParallelCancellation(t *testing.T) {
	// A single-relation instance big enough that round one's frontier
	// (every constant) and round two's (every derived block key) both
	// exceed the drain threshold, so the loop genuinely iterates.
	db := instance.New()
	for i := 0; i < 10000; i++ {
		db.AddFact("R", fmt.Sprintf("c%d", i), fmt.Sprintf("c%d", i+1))
	}
	iv := db.Interned()
	cp := Compile(words.MustParse("R"))
	const workers = 4
	b := cp.Bind(iv, workers)

	// Sanity: uncancelled parallel solve matches sequential and polls
	// more than twice (entry + at least two rounds).
	probe := &stepCtx{limit: 1 << 30}
	res, err := cp.SolveBound(probe, iv, b, workers)
	if err != nil || res == nil {
		t.Fatalf("uncancelled solve: %v", err)
	}
	if probe.calls < 3 {
		t.Fatalf("solve polled ctx %d times; instance too small to cancel mid-solve", probe.calls)
	}

	// Cancel at the second round's poll: after real parallel work, before
	// completion.
	res2, err := cp.SolveBound(&stepCtx{limit: 2}, iv, b, workers)
	if err != context.Canceled {
		t.Fatalf("cancelled solve: err = %v, want context.Canceled", err)
	}
	if res2 != nil {
		t.Fatalf("cancelled solve returned a partial result")
	}

	// Entry-cancelled: no work at all.
	if _, err := cp.SolveBound(&stepCtx{limit: 0}, iv, b, workers); err != context.Canceled {
		t.Fatalf("entry cancel: err = %v", err)
	}

	// Retry after cancellation succeeds on the same binding.
	res3, err := cp.SolveBound(context.Background(), iv, b, workers)
	if err != nil {
		t.Fatalf("retry: %v", err)
	}
	want := Compile(words.MustParse("R")).SolveInterned(iv)
	if res3.Certain != want.Certain || !res3.bits.Equal(want.bits) {
		t.Fatalf("retry after cancellation differs from sequential oracle")
	}
}
