package nl

import (
	"testing"

	"cqa/internal/instance"
	"cqa/internal/words"
	"cqa/internal/workload"
)

// TestIsCertainOptsEquivalence checks the partitioned NL stages against
// the sequential path as oracle: the decision and the full O bitset
// must match on every instance, with the worker count passed directly
// so the parallel path runs regardless of size. Covers loop
// decompositions (RRX) and the loop-free delegation to the whole-word
// fixpoint solver (RXRX).
func TestIsCertainOptsEquivalence(t *testing.T) {
	rnd := func(seed int64, consts, facts int, conflict float64) *instance.Instance {
		return workload.Random(workload.Config{
			Relations:    []string{"R", "X", "Y", "A"},
			Constants:    consts,
			Facts:        facts,
			ConflictRate: conflict,
			Seed:         seed,
		})
	}
	dbs := map[string]*instance.Instance{
		"random-small": rnd(11, 40, 150, 0.4),
		"random-mid":   rnd(12, 400, 2000, 0.3),
		"random-dense": rnd(13, 60, 900, 0.8),
		"chain":        workload.Chain(words.MustParse("RRX"), 300),
		"figure2":      workload.Figure2Family(150),
		"empty":        instance.New(),
	}
	for _, qs := range []string{"RRX", "RRRRRRRRX", "RXRX"} {
		q := words.MustParse(qs)
		for name, db := range dbs {
			seqEval, err := NewEvaluator(q)
			if err != nil {
				t.Fatalf("%s: %v", qs, err)
			}
			want := seqEval.IsCertain(db)
			iv := db.Interned()
			wantO := seqEval.Bind(iv, 1).o
			for _, workers := range []int{2, 8} {
				parEval, err := NewEvaluator(q)
				if err != nil {
					t.Fatal(err)
				}
				b := parEval.Bind(iv, workers)
				if got := parEval.Certain(iv, b); got != want {
					t.Errorf("%s/%s workers=%d: IsCertain = %v, want %v", qs, name, workers, got, want)
				}
				gotO := b.o
				if !gotO.Equal(wantO) {
					t.Errorf("%s/%s workers=%d: O bitsets differ", qs, name, workers)
				}
				if iv.NumConsts() > 0 {
					if s := parEval.ParallelStats(); s.Solves == 0 {
						t.Errorf("%s/%s workers=%d: ParallelStats = %+v, want engaged", qs, name, workers, s)
					}
				}
			}
		}
	}
}

// TestIsCertainOptsDisengaged checks that a worker count of at most 1
// keeps the sequential path (zero parallel counters, same answer).
// Which snapshots get more than one worker is the plan's rule
// (internal/plan's TestSolveWorkersRule).
func TestIsCertainOptsDisengaged(t *testing.T) {
	db := workload.Figure2Family(80)
	q := words.MustParse("RRX")
	ev, err := NewEvaluator(q)
	if err != nil {
		t.Fatal(err)
	}
	want := ev.IsCertain(db)
	iv := db.Interned()
	for _, workers := range []int{0, 1} {
		ev2, err := NewEvaluator(q)
		if err != nil {
			t.Fatal(err)
		}
		if got := ev2.Certain(iv, ev2.Bind(iv, workers)); got != want {
			t.Fatalf("workers %d: Certain = %v, want %v", workers, got, want)
		}
		if s := ev2.ParallelStats(); s.Solves != 0 || s.Shards != 0 {
			t.Fatalf("workers %d: ParallelStats = %+v, want zero", workers, s)
		}
	}
}
