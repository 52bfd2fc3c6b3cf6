package conp

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"cqa/internal/classify"
	"cqa/internal/fixpoint"
	"cqa/internal/instance"
	"cqa/internal/repairs"
	"cqa/internal/words"
)

func randomWord(rng *rand.Rand, alpha []string, n int) words.Word {
	w := make(words.Word, n)
	for i := range w {
		w[i] = alpha[rng.Intn(len(alpha))]
	}
	return w
}

func randomInstance(rng *rand.Rand, rels []string, nFacts, nConsts int) *instance.Instance {
	db := instance.New()
	for i := 0; i < nFacts; i++ {
		rel := rels[rng.Intn(len(rels))]
		key := fmt.Sprintf("c%d", rng.Intn(nConsts))
		val := fmt.Sprintf("c%d", rng.Intn(nConsts))
		db.AddFact(rel, key, val)
	}
	return db
}

// TestConpPropertyVsOracles cross-checks the interned SAT tier on
// random queries of every class: against the Figure 5 fixpoint solver
// (exact for C3 ⊇ C2 ⊇ C1) on non-coNP words over medium instances, and
// against exhaustive repair enumeration on small instances for coNP
// words. Each Compiled is reused across instances and re-asked per
// snapshot, so the encoding memo and the incremental warm path are
// exercised, not just the cold build.
func TestConpPropertyVsOracles(t *testing.T) {
	rng := rand.New(rand.NewSource(2406))
	alpha := []string{"R", "X", "Y"}
	cases := 0
	for cases < 220 {
		w := randomWord(rng, alpha, 2+rng.Intn(5))
		cp := compileMemo(w)
		if classify.Classify(w) == classify.CoNP {
			for k := 0; k < 3; k++ {
				db := randomInstance(rng, alpha, 1+rng.Intn(8), 4)
				got := cp.IsCertain(db)
				if want := repairs.IsCertain(db, w); got.Certain != want {
					t.Fatalf("q=%v db=%s: sat=%v exhaustive=%v", w, db, got.Certain, want)
				}
				warm := cp.IsCertain(db)
				if warm.Certain != got.Certain {
					t.Fatalf("q=%v db=%s: warm call flipped %v -> %v", w, db, got.Certain, warm.Certain)
				}
				if !warm.Certain {
					cex := warm.Counterexample()
					if cex == nil || !cex.IsRepairOf(db) || cex.Satisfies(w) {
						t.Fatalf("q=%v db=%s: invalid warm counterexample %v", w, db, cex)
					}
				}
				cases++
			}
		} else {
			oracle := fixpoint.Compile(w)
			for k := 0; k < 3; k++ {
				db := randomInstance(rng, alpha, 5+rng.Intn(26), 10)
				got := cp.IsCertain(db)
				if want := oracle.Solve(db).Certain; got.Certain != want {
					t.Fatalf("q=%v db=%s: sat=%v fixpoint=%v", w, db, got.Certain, want)
				}
				if warm := cp.IsCertain(db); warm.Certain != got.Certain {
					t.Fatalf("q=%v db=%s: warm call flipped", w, db)
				}
				cases++
			}
		}
	}
}

// TestConpMemoInvalidation: a mutation publishes a fresh interned
// snapshot, so the memoized CNF (and its solver) must be rebuilt and
// the decision must track the new instance state. Run with -race (CI
// does): the concurrent phases check that sharing one memoized encoding
// across goroutines — including its stateful incremental solver — is
// race-free. Mirrors the PR 3 NL evaluator invalidation test.
func TestConpMemoInvalidation(t *testing.T) {
	cp := compileMemo(words.MustParse("ARRX"))
	db := instance.MustParseFacts("A(0,a) R(a,b) R(a,c) R(b,c) R(c,b) X(c,t)")

	concurrent := func(want bool, phase string) {
		t.Helper()
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 25; i++ {
					res := cp.IsCertain(db)
					if res.Certain != want {
						t.Errorf("%s: IsCertain = %v, want %v", phase, res.Certain, want)
						return
					}
					if !res.Certain {
						cex := res.Counterexample()
						if cex == nil || !cex.IsRepairOf(db) {
							t.Errorf("%s: invalid counterexample", phase)
							return
						}
					}
				}
			}()
		}
		wg.Wait()
	}

	// Figure 3 is a no-instance of CERTAINTY(ARRX).
	concurrent(false, "initial")
	iv1 := db.Interned()

	// Dropping R(a,c) removes the only conflicting block: the single
	// remaining repair has the path A(0,a)R(a,b)R(b,c)X(c,t).
	db.Remove(instance.Fact{Rel: "R", Key: "a", Val: "c"})
	if db.Interned() == iv1 {
		t.Fatal("mutation did not publish a fresh interned snapshot")
	}
	concurrent(true, "after Remove")

	// Restore: the re-add exactly undoes the removal, so the intern
	// layer collapses back onto the first snapshot pointer and the
	// no-decision is served by the originally memoized encoding.
	db.AddFact("R", "a", "c")
	if db.Interned() != iv1 {
		t.Fatal("toggle-back did not restore the original snapshot pointer")
	}
	concurrent(false, "after re-Add")

	if n := cp.encs.Len(); n != 2 {
		t.Errorf("encoding memo holds %d snapshots, want 2", n)
	}
}

// TestCompiledWarmReuseCounts asserts the warm path actually reuses the
// memoized encoding: repeated decisions on one snapshot keep a single
// resident encoding and agree with the cold answer.
func TestCompiledWarmReuseCounts(t *testing.T) {
	cp := compileMemo(words.MustParse("ARRX"))
	db := instance.MustParseFacts("A(0,a) R(a,b) R(a,c) R(b,c) R(c,b) X(c,t)")
	cold := cp.IsCertain(db)
	for i := 0; i < 10; i++ {
		if warm := cp.IsCertain(db); warm.Certain != cold.Certain {
			t.Fatal("warm decision flipped")
		}
	}
	if n := cp.encs.Len(); n != 1 {
		t.Errorf("encoding memo holds %d entries, want 1", n)
	}
	if !cp.encs.Contains(db.Interned()) {
		t.Error("current snapshot not resident")
	}
}
