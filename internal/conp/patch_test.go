package conp

import (
	"context"
	"testing"

	"cqa/internal/instance"
	"cqa/internal/memo"
	"cqa/internal/words"
)

// memoCompiled decides through a lineage-aware encoding memo, the way
// the plan layer's tier seam holds SAT encodings: a miss patches the
// nearest resident ancestor's encoding (Patch) or encodes cold.
type memoCompiled struct {
	*Compiled
	encs *memo.LRU[*instance.Interned, *Encoding]
}

func compileMemo(q words.Word) *memoCompiled {
	return &memoCompiled{Compiled: Compile(q), encs: memo.NewLRU[*instance.Interned, *Encoding](16)}
}

func (m *memoCompiled) IsCertainInterned(iv *instance.Interned) *Result {
	e := memo.GetLineage(m.encs, iv,
		func(parent *Encoding, touched []instance.BlockRef) (*Encoding, bool) {
			child := m.Patch(parent, iv, touched)
			return child, child != nil
		},
		func() *Encoding { return m.Encode(iv) })
	res, err := m.Solve(context.Background(), iv, e, true)
	if err != nil {
		panic(err) // a background context never cancels
	}
	return res
}

func (m *memoCompiled) IsCertain(db *instance.Instance) *Result {
	return m.IsCertainInterned(db.Interned())
}

// conpChurnInstance has conflicting blocks in every relation over a
// fixed universe, so in-place mutations ride the delta-interning path
// and the encoding patcher sees both query and non-query relations.
func conpChurnInstance() *instance.Instance {
	db := instance.New()
	consts := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	for _, rel := range []string{"A", "R", "X", "Y"} {
		for i, k := range consts {
			db.AddFact(rel, k, consts[(i+1)%len(consts)])
			if i%2 == 0 {
				db.AddFact(rel, k, consts[(i+3)%len(consts)])
			}
		}
	}
	return db
}

func TestPatchedEncodingMatchesColdChurn(t *testing.T) {
	q := words.MustParse("ARRX")
	cp := compileMemo(q)
	db := conpChurnInstance()
	cp.IsCertain(db) // cold build for the lineage root

	consts := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	rels := []string{"R", "A", "X", "Y"} // query rels and a non-query rel
	for step := 0; step < 80; step++ {
		rel := rels[step%len(rels)]
		k := consts[(step*3)%len(consts)]
		v := consts[(step*5+1)%len(consts)]
		f := instance.Fact{Rel: rel, Key: k, Val: v}
		if db.Contains(f) && len(db.Block(rel, k)) > 1 {
			db.Remove(f)
		} else {
			db.Add(f)
		}
		got := cp.IsCertain(db)
		want := Compile(q).IsCertain(db.Clone())
		if got.Certain != want.Certain {
			t.Fatalf("step %d (%v): patched = %v, cold = %v", step, f, got.Certain, want.Certain)
		}
		if !got.Certain {
			cex := got.Counterexample()
			if cex == nil || !cex.IsRepairOf(db) || cex.Satisfies(q) {
				t.Fatalf("step %d (%v): invalid counterexample from patched encoding", step, f)
			}
		}
	}
	if s := cp.encs.Stats(); s.Repairs == 0 {
		t.Errorf("stats = %+v, want repairs > 0 (mutations stay in-universe)", s)
	}
}

func TestPatchStealsSolverAndParentRebuilds(t *testing.T) {
	q := words.MustParse("ARRX")
	cp := compileMemo(q)
	// Y(u,t) keeps constant u in the active domain when X(c,u) goes, so
	// the removal stays inside the universe and delta-interns.
	db := instance.MustParseFacts("A(0,a) R(a,b) R(a,c) R(b,c) R(c,b) X(c,t) X(c,u) Y(u,t)")
	cold := cp.IsCertain(db)
	iv1 := db.Interned()

	// Removing X(c,u) keeps block X(c,*) nonempty: a removal-only patch.
	db.Remove(instance.Fact{Rel: "X", Key: "c", Val: "u"})
	res := cp.IsCertain(db)
	if s := cp.encs.Stats(); s.Repairs != 1 {
		t.Fatalf("stats = %+v, want exactly one repair", s)
	}
	if want := Compile(q).IsCertain(db.Clone()); res.Certain != want.Certain {
		t.Fatalf("patched decision = %v, cold = %v", res.Certain, want.Certain)
	}

	// The parent snapshot must still answer correctly after its solver
	// moved to the child (it rebuilds by re-encoding its snapshot).
	again := cp.IsCertainInterned(iv1)
	if again.Certain != cold.Certain {
		t.Fatalf("parent re-decision = %v, want %v", again.Certain, cold.Certain)
	}
}

func TestPatchFallsBackColdOnBlockCreation(t *testing.T) {
	q := words.MustParse("ARRX")
	cp := compileMemo(q)
	db := conpChurnInstance()
	cp.IsCertain(db)

	// Emptying a block (and later re-creating it) shifts the encoding's
	// z-liveness structure, which the patcher refuses to repair; both
	// steps must fall back to a cold build and still answer correctly.
	for _, v := range append([]string(nil), db.Block("R", "a")...) {
		db.Remove(instance.Fact{Rel: "R", Key: "a", Val: v})
	}
	got := cp.IsCertain(db)
	want := Compile(q).IsCertain(db.Clone())
	if got.Certain != want.Certain {
		t.Fatalf("after emptying R(a,*): patched = %v, cold = %v", got.Certain, want.Certain)
	}

	// Re-creating the block is the creation fallback.
	db.AddFact("R", "a", "b")
	got = cp.IsCertain(db)
	want = Compile(q).IsCertain(db.Clone())
	if got.Certain != want.Certain {
		t.Fatalf("after re-creating R(a,*): patched = %v, cold = %v", got.Certain, want.Certain)
	}
}
