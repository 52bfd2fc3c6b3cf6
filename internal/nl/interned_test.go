package nl

import (
	"math/rand"
	"sync"
	"testing"

	"cqa/internal/fixpoint"
	"cqa/internal/instance"
	"cqa/internal/words"
)

// TestCycleVerticesDeepChain: the SCC computation must survive a
// loop-step graph that is one 50k-vertex chain (it is an iterative
// Tarjan; the recursive version would blow the stack at this depth),
// and still detect the single cycle at the chain's end.
func TestCycleVerticesDeepChain(t *testing.T) {
	const n = 50_000
	// Chain 0 -> 1 -> ... -> n-1, plus the back edge n-1 -> n-2 closing
	// a 2-cycle at the deep end.
	adjStart := make([]int32, n+1)
	adjList := make([]int32, 0, n)
	for v := 0; v < n; v++ {
		adjStart[v] = int32(len(adjList))
		if v < n-1 {
			adjList = append(adjList, int32(v+1))
		} else {
			adjList = append(adjList, int32(v-1))
		}
	}
	adjStart[n] = int32(len(adjList))
	got := cycleVertices(adjStart, adjList)
	if len(got) != 2 {
		t.Fatalf("cycleVertices returned %d vertices, want 2", len(got))
	}
	seen := map[int32]bool{got[0]: true, got[1]: true}
	if !seen[n-2] || !seen[n-1] {
		t.Errorf("cycleVertices = %v, want {%d, %d}", got, n-2, n-1)
	}
}

// TestCycleVerticesSelfLoop: singleton SCCs count only with a self-loop.
func TestCycleVerticesSelfLoop(t *testing.T) {
	// 0 -> 0 (self-loop), 1 -> 2 (acyclic).
	adjStart := []int32{0, 1, 2, 2}
	adjList := []int32{0, 2}
	got := cycleVertices(adjStart, adjList)
	if len(got) != 1 || got[0] != 0 {
		t.Errorf("cycleVertices = %v, want [0]", got)
	}
}

// TestEvaluatorInvalidation: a mutation publishes a fresh interned
// snapshot, so the evaluator's memoized artifacts must be rebuilt and
// the answers must track the new instance state. Run with -race (CI
// does): the concurrent phases check that snapshot-keyed artifact
// sharing is race-free.
func TestEvaluatorInvalidation(t *testing.T) {
	e := newMemoEvaluator(t, words.MustParse("RRX"))
	db := instance.MustParseFacts("R(0,1) R(1,2) R(1,3) R(2,3) X(3,4)")

	concurrent := func(want bool, phase string) {
		t.Helper()
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 50; i++ {
					if got := e.IsCertain(db); got != want {
						t.Errorf("%s: IsCertain = %v, want %v", phase, got, want)
						return
					}
				}
			}()
		}
		wg.Wait()
	}

	concurrent(true, "initial")
	iv1 := db.Interned()

	// Mutation: dropping the only X fact makes RRX unsatisfiable in
	// every repair. A stale O would still answer true.
	db.Remove(instance.Fact{Rel: "X", Key: "3", Val: "4"})
	if db.Interned() == iv1 {
		t.Fatal("mutation did not publish a fresh interned snapshot")
	}
	concurrent(false, "after Remove")

	// Restore: certainty must come back through a third snapshot.
	db.AddFact("X", "3", "4")
	concurrent(true, "after re-Add")

	if n := e.memo.Len(); n != 3 {
		t.Errorf("binding memo holds %d snapshots, want 3", n)
	}
}

// TestNLPropertyVsFixpoint cross-checks the interned NL tier against
// the Figure 5 fixpoint solver (exact for all of C3 ⊇ C2, so it is an
// oracle here) on randomly generated C2 queries and instances. Each
// evaluator is reused across several instances so the per-snapshot
// artifact memo is exercised, not just the build path.
func TestNLPropertyVsFixpoint(t *testing.T) {
	rng := rand.New(rand.NewSource(1406))
	alpha := []string{"R", "X", "Y"}
	cases := 0
	for cases < 200 {
		// Random candidate word; keep it when the NL tier accepts it
		// (C2 with a certified decomposition).
		n := 2 + rng.Intn(6)
		w := make(words.Word, n)
		for i := range w {
			w[i] = alpha[rng.Intn(len(alpha))]
		}
		e, err := NewEvaluator(w)
		if err != nil {
			continue
		}
		oracle := fixpoint.Compile(w)
		for k := 0; k < 4; k++ {
			db := randomInstance(rng, alpha, 30, 8)
			got := e.IsCertain(db)
			// Warm call on the same snapshot must agree with itself.
			if again := e.IsCertain(db); again != got {
				t.Fatalf("q=%v db=%s: warm call flipped %v -> %v", w, db, got, again)
			}
			want := oracle.Solve(db).Certain
			if got != want {
				t.Fatalf("q=%v db=%s: nl=%v fixpoint=%v", w, db, got, want)
			}
			cases++
		}
	}
}
