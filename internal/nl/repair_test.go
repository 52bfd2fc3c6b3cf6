package nl

import (
	"testing"

	"cqa/internal/instance"
	"cqa/internal/memo"
	"cqa/internal/words"
)

// memoEvaluator decides through a lineage-aware binding memo, the way
// the plan layer's tier seam holds NL bindings: a miss repairs the
// nearest resident ancestor's binding (Rebind) or binds cold.
type memoEvaluator struct {
	*Evaluator
	memo *memo.LRU[*instance.Interned, *Binding]
}

func newMemoEvaluator(t *testing.T, q words.Word) *memoEvaluator {
	t.Helper()
	ev, err := NewEvaluator(q)
	if err != nil {
		t.Fatal(err)
	}
	return &memoEvaluator{Evaluator: ev, memo: memo.NewLRU[*instance.Interned, *Binding](16)}
}

func (m *memoEvaluator) bind(iv *instance.Interned) *Binding {
	return memo.GetLineage(m.memo, iv,
		func(parent *Binding, touched []instance.BlockRef) (*Binding, bool) {
			return m.Rebind(parent, iv, touched, 1), true
		},
		func() *Binding { return m.Bind(iv, 1) })
}

func (m *memoEvaluator) IsCertain(db *instance.Instance) bool {
	iv := db.Interned()
	return m.Certain(iv, m.bind(iv))
}

// nlChurnInstance covers relations both inside and outside the RRX
// decomposition's dependency sets, over a fixed universe.
func nlChurnInstance() *instance.Instance {
	db := instance.New()
	consts := []string{"a", "b", "c", "d", "e", "f"}
	for _, rel := range []string{"R", "X", "Y"} {
		for i, k := range consts {
			db.AddFact(rel, k, consts[(i+2)%len(consts)])
			if i%2 == 0 {
				db.AddFact(rel, k, consts[(i+4)%len(consts)])
			}
		}
	}
	return db
}

func TestNLRepairMatchesColdBuild(t *testing.T) {
	q := words.MustParse("RRX")
	ev := newMemoEvaluator(t, q)
	db := nlChurnInstance()
	ev.IsCertain(db) // cold build for the root snapshot

	consts := []string{"a", "b", "c", "d", "e", "f"}
	rels := []string{"R", "X", "Y"}
	for step := 0; step < 60; step++ {
		rel := rels[step%len(rels)]
		k := consts[step%len(consts)]
		v := consts[(step*5+3)%len(consts)]
		f := instance.Fact{Rel: rel, Key: k, Val: v}
		if db.Contains(f) && len(db.Block(rel, k)) > 1 {
			db.Remove(f)
		} else {
			db.Add(f)
		}
		got := ev.IsCertain(db)
		cold, err := NewEvaluator(q)
		if err != nil {
			t.Fatal(err)
		}
		want := cold.IsCertain(db.Clone())
		if got != want {
			t.Fatalf("step %d (%v): repaired = %v, cold = %v", step, f, got, want)
		}
	}
	if s := ev.memo.Stats(); s.Repairs == 0 {
		t.Errorf("stats = %+v, want repairs > 0", s)
	}
}

func TestNLRepairSharesUntouchedBinding(t *testing.T) {
	q := words.MustParse("RRX")
	ev := newMemoEvaluator(t, q)
	db := nlChurnInstance()
	iv1 := db.Interned()
	b1 := ev.bind(iv1)

	// Relation Y is outside pre, loop, and exit of RRX's decomposition:
	// the mutation reaches no slice, so the binding carries over whole.
	db.AddFact("Y", "a", "f")
	iv2 := db.Interned()
	if iv2.Delta() == nil {
		t.Fatalf("in-universe mutation should delta-intern")
	}
	b2 := ev.bind(iv2)
	if b2 != b1 {
		t.Errorf("binding must be shared when no dependency relation is touched")
	}

	// A mutation in X (exit only) reuses the loop-terminal stage.
	db.AddFact("X", "b", "e")
	b3 := ev.bind(db.Interned())
	if b3 == b2 {
		t.Errorf("exit-relation mutation must produce a new binding")
	}
	if &b3.loopTerminal[0] != &b2.loopTerminal[0] {
		t.Errorf("loop-terminal stage must be aliased when loop relations are untouched")
	}
}
