package cqa

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"cqa/internal/instance"
	"cqa/internal/plan"
)

// churnInstance builds an instance with conflicting blocks in every
// relation over a fixed eight-constant universe, so in-place mutations
// that keep every block nonempty ride the delta-interning path and the
// tier caches repair instead of rebuilding.
func churnInstance(seed int64) *Instance {
	db := instance.New()
	consts := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	rng := rand.New(rand.NewSource(seed))
	for _, rel := range []string{"A", "R", "X", "Y"} {
		for i, k := range consts {
			db.AddFact(rel, k, consts[(i+1)%len(consts)])
			if rng.Intn(2) == 0 {
				db.AddFact(rel, k, consts[(i+3)%len(consts)])
			}
		}
	}
	return db
}

// TestChurnSoak interleaves in-place mutations with concurrent queries
// over shared instances, one query word per tier, and checks every
// engine decision against a cold build on a clone of the same snapshot.
// Each instance's RWMutex enforces the Instance contract (mutations
// never race with readers); everything downstream of Interned() —
// lineage repair in the fixpoint, NL and SAT caches, the plan cache,
// concurrent solver access — runs concurrently across the query
// workers, so the test is meant to run under -race.
func TestChurnSoak(t *testing.T) {
	queries := []Query{
		MustParseQuery("RXRX"),   // FO
		MustParseQuery("RRX"),    // NL
		MustParseQuery("RXRYRY"), // PTIME fixpoint
		MustParseQuery("ARRX"),   // coNP SAT
	}
	eng := NewEngine(EngineConfig{})

	type shared struct {
		mu sync.RWMutex
		db *Instance
	}
	dbs := []*shared{
		{db: churnInstance(1)},
		{db: churnInstance(2)},
	}

	const (
		mutations    = 120 // per mutator
		queryWorkers = 4
		queryIters   = 160 // per worker
	)
	consts := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	rels := []string{"A", "R", "X", "Y"}

	var wg sync.WaitGroup
	for si, s := range dbs {
		wg.Add(1)
		go func(si int, s *shared) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + si)))
			for step := 0; step < mutations; step++ {
				s.mu.Lock()
				if step%10 == 9 {
					// Occasionally leave the fixed universe: a fresh
					// constant forces a fresh lineage root, so cold
					// rebuilds interleave with repairs.
					f := instance.Fact{Rel: "R", Key: "a", Val: "z"}
					if s.db.Contains(f) {
						s.db.Remove(f)
					} else {
						s.db.Add(f)
					}
				} else {
					f := instance.Fact{
						Rel: rels[rng.Intn(len(rels))],
						Key: consts[rng.Intn(len(consts))],
						Val: consts[rng.Intn(len(consts))],
					}
					if s.db.Contains(f) && len(s.db.Block(f.Rel, f.Key)) > 1 {
						s.db.Remove(f)
					} else if !s.db.Contains(f) {
						s.db.Add(f)
					}
				}
				s.mu.Unlock()
				// Pace the mutations so the query workers observe
				// intermediate snapshots: a mutator that ran all its
				// steps before the first query left nothing to repair
				// from, and the repair assertion below flaked.
				time.Sleep(50 * time.Microsecond)
			}
		}(si, s)
	}
	for w := 0; w < queryWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(200 + w)))
			for i := 0; i < queryIters; i++ {
				q := queries[rng.Intn(len(queries))]
				s := dbs[rng.Intn(len(dbs))]
				s.mu.RLock()
				got := eng.Certain(q, s.db)
				want := plan.Compile(q.Word()).Certain(s.db.Clone())
				s.mu.RUnlock()
				if got.Err != nil || want.Err != nil {
					t.Errorf("worker %d iter %d (%v): err = %v / %v", w, i, q, got.Err, want.Err)
					return
				}
				if got.Certain != want.Certain {
					t.Errorf("worker %d iter %d (%v): engine = %v, cold = %v",
						w, i, q, got.Certain, want.Certain)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	// The point of the soak is the repair path: with mutations mostly
	// inside a fixed universe, at least some warm decisions must have
	// been answered by lineage repair rather than cold builds.
	if m := eng.Stats().Memo; m.Repairs == 0 {
		t.Errorf("memo stats = %+v, want lineage repairs under churn", m)
	}
}
