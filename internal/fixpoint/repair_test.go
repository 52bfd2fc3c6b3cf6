package fixpoint

import (
	"fmt"
	"reflect"
	"testing"

	"cqa/internal/instance"
	"cqa/internal/memo"
	"cqa/internal/words"
)

// maxResident is the memo bound of memoSolver, matching the plan
// layer's per-tier snapshot bound.
const maxResident = 16

// memoSolver solves through a lineage-aware binding memo, the way the
// plan layer's tier seam holds fixpoint bindings: a miss repairs the
// nearest resident ancestor's binding (Rebind) or binds cold.
type memoSolver struct {
	cp   *Compiled
	memo *memo.LRU[*instance.Interned, *Binding]
}

func newMemoSolver(q words.Word) *memoSolver {
	return &memoSolver{cp: Compile(q), memo: memo.NewLRU[*instance.Interned, *Binding](maxResident)}
}

func (s *memoSolver) bind(iv *instance.Interned) *Binding {
	return memo.GetLineage(s.memo, iv,
		func(parent *Binding, touched []instance.BlockRef) (*Binding, bool) {
			return s.cp.Rebind(parent, iv, touched), true
		},
		func() *Binding { return s.cp.Bind(iv, 1) })
}

func (s *memoSolver) Solve(db *instance.Instance) *Result {
	iv := db.Interned()
	return s.cp.solve(iv, s.bind(iv))
}

// churnInstance builds an instance with conflicting blocks over a fixed
// universe so in-place mutations ride the delta-interning path.
func churnInstance() *instance.Instance {
	db := instance.New()
	consts := []string{"c0", "c1", "c2", "c3", "c4", "c5", "c6", "c7"}
	for _, rel := range []string{"R", "S"} {
		for i, k := range consts {
			db.AddFact(rel, k, consts[(i+1)%len(consts)])
			if i%3 == 0 {
				db.AddFact(rel, k, consts[(i+3)%len(consts)])
			}
		}
	}
	return db
}

func TestBindingRepairMatchesColdSolve(t *testing.T) {
	q := words.Word{"R", "S", "R"}
	db := churnInstance()
	cp := newMemoSolver(q)
	cp.Solve(db) // cold build for the root snapshot

	consts := []string{"c0", "c1", "c2", "c3", "c4", "c5", "c6", "c7"}
	for step := 0; step < 50; step++ {
		rel := []string{"R", "S"}[step%2]
		k := consts[step%len(consts)]
		v := consts[(step*5+2)%len(consts)]
		f := instance.Fact{Rel: rel, Key: k, Val: v}
		if db.Contains(f) && len(db.Block(rel, k)) > 1 {
			db.Remove(f)
		} else {
			db.Add(f)
		}
		got := cp.Solve(db)
		want := Compile(q).Solve(db) // independent cold pipeline
		if got.Certain != want.Certain || !reflect.DeepEqual(got.Starts, want.Starts) {
			t.Fatalf("step %d: repaired solve = (%v, %v), cold = (%v, %v)",
				step, got.Certain, got.Starts, want.Certain, want.Starts)
		}
		if !reflect.DeepEqual(got.Pairs(), want.Pairs()) {
			t.Fatalf("step %d: repaired N differs from cold N", step)
		}
	}
	s := cp.memo.Stats()
	if s.Repairs == 0 {
		t.Errorf("stats = %+v, want repairs > 0 (mutations stay in-universe)", s)
	}
	if s.MaxLineageDepth == 0 {
		t.Errorf("stats = %+v, want a recorded lineage depth", s)
	}
}

func TestBindingRepairSharesUntouchedSegments(t *testing.T) {
	q := words.Word{"R", "S"}
	db := churnInstance()
	cp := newMemoSolver(q)

	iv1 := db.Interned()
	b1 := cp.bind(iv1)
	db.AddFact("R", "c0", "c5") // touches R only, in-universe
	iv2 := db.Interned()
	if iv2.Delta() == nil {
		t.Fatalf("mutation should have produced a delta snapshot")
	}
	b2 := cp.bind(iv2)
	if s := cp.memo.Stats(); s.Repairs != 1 {
		t.Fatalf("stats = %+v, want exactly one repair", s)
	}
	if b2.pos[0] == b1.pos[0] {
		t.Errorf("touched relation R's segment must be rebuilt")
	}
	if b2.pos[1] != b1.pos[1] {
		t.Errorf("untouched relation S's segment must be shared with the parent binding")
	}
}

func TestBindingRepairAfterUniverseChangeFallsBackCold(t *testing.T) {
	q := words.Word{"R", "S"}
	db := churnInstance()
	cp := newMemoSolver(q)
	cp.Solve(db)
	db.AddFact("R", "c0", "brand-new") // universe change: fresh lineage root
	if db.Interned().Delta() != nil {
		t.Fatalf("universe change should start a fresh root")
	}
	got := cp.Solve(db)
	want := Compile(q).Solve(db)
	if got.Certain != want.Certain || !reflect.DeepEqual(got.Pairs(), want.Pairs()) {
		t.Fatalf("cold fallback solve diverged from independent cold solve")
	}
	if s := cp.memo.Stats(); s.Repairs != 0 {
		t.Errorf("stats = %+v, want no repairs across a lineage break", s)
	}
}

func TestBindingRepairSkipsDeeperThanResident(t *testing.T) {
	// Evict the whole memo between mutations by churning more snapshots
	// than the memo holds, then check the repaired result still matches.
	q := words.Word{"R", "R"}
	db := churnInstance()
	cp := newMemoSolver(q)
	for i := 0; i < maxResident+4; i++ {
		f := instance.Fact{Rel: "R", Key: "c1", Val: fmt.Sprintf("c%d", i%4)}
		if db.Contains(f) && len(db.Block("R", "c1")) > 1 {
			db.Remove(f)
		} else {
			db.Add(f)
		}
		got := cp.Solve(db)
		want := Compile(q).Solve(db)
		if got.Certain != want.Certain {
			t.Fatalf("step %d: repaired %v, cold %v", i, got.Certain, want.Certain)
		}
	}
}
