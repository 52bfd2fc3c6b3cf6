package instance

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// reintern builds a lineage-root snapshot of the same fact set, for
// comparing a delta-built snapshot against a from-scratch build. It
// reads db's fact map, not a view of the snapshot under test, and adds
// the facts to a fresh instance in an order shuffled by seed, so every
// comparison also checks that a snapshot does not depend on the order
// in which its facts were inserted.
func reintern(db *Instance, seed int64) *Interned {
	facts := make([]Fact, 0, len(db.facts))
	for f := range db.facts {
		facts = append(facts, f)
	}
	// Sort away the map order first, so that seed alone fixes the
	// insertion order and a failure replays.
	sort.Slice(facts, func(i, j int) bool {
		a, b := facts[i], facts[j]
		if a.Rel != b.Rel {
			return a.Rel < b.Rel
		}
		if a.Key != b.Key {
			return a.Key < b.Key
		}
		return a.Val < b.Val
	})
	rand.New(rand.NewSource(seed)).Shuffle(len(facts), func(i, j int) { facts[i], facts[j] = facts[j], facts[i] })
	return FromFacts(facts...).Interned()
}

// sameInterned asserts structural equality of two snapshots (names,
// ids, blocks, fact count) without regard to lineage.
func sameInterned(t *testing.T, got, want *Interned) {
	t.Helper()
	if !reflect.DeepEqual(got.consts, want.consts) {
		t.Fatalf("consts = %v, want %v", got.consts, want.consts)
	}
	if !reflect.DeepEqual(got.rels, want.rels) {
		t.Fatalf("rels = %v, want %v", got.rels, want.rels)
	}
	if !reflect.DeepEqual(got.blocks, want.blocks) {
		t.Fatalf("blocks = %v, want %v", got.blocks, want.blocks)
	}
	if got.nfacts != want.nfacts {
		t.Fatalf("nfacts = %d, want %d", got.nfacts, want.nfacts)
	}
}

func TestDeltaInternAddExistingUniverse(t *testing.T) {
	db := FromFacts(
		Fact{"R", "a", "b"},
		Fact{"R", "b", "c"},
		Fact{"S", "a", "c"},
	)
	s1 := db.Interned()
	if s1.Delta() != nil {
		t.Fatalf("first snapshot should be a lineage root")
	}

	// Add within the existing universe: a delta child sharing id tables.
	db.AddFact("R", "a", "c")
	s2 := db.Interned()
	d := s2.Delta()
	if d == nil {
		t.Fatalf("expected a delta snapshot after in-universe Add")
	}
	if d.Parent != s1 || d.Depth != 1 {
		t.Fatalf("delta = {parent %p depth %d}, want {parent %p depth 1}", d.Parent, d.Depth, s1)
	}
	rid, _ := s1.RelID("R")
	kid, _ := s1.ConstID("a")
	if want := []BlockRef{{rid, kid}}; !reflect.DeepEqual(d.Touched, want) {
		t.Fatalf("touched = %v, want %v", d.Touched, want)
	}
	if &s2.consts[0] != &s1.consts[0] || &s2.rels[0] != &s1.rels[0] {
		t.Fatalf("delta child must share the parent id tables")
	}
	// Untouched relation S shares its block slice outright.
	sid, _ := s1.RelID("S")
	if &s2.blocks[sid][0] != &s1.blocks[sid][0] {
		t.Fatalf("untouched relation's blocks must be aliased, not copied")
	}
	sameInterned(t, s2, reintern(db, 1))
	// The parent is untouched.
	if got := s1.Block(rid, kid); len(got) != 1 {
		t.Fatalf("parent block mutated: %v", got)
	}
}

func TestDeltaInternRemoveAndEmptiedBlock(t *testing.T) {
	db := FromFacts(
		Fact{"R", "a", "b"},
		Fact{"R", "a", "c"},
		Fact{"R", "b", "c"},
		Fact{"S", "b", "a"},
	)
	s1 := db.Interned()

	// Remove one fact of a two-fact block: universe unchanged.
	db.Remove(Fact{"R", "a", "b"})
	s2 := db.Interned()
	if s2.Delta() == nil || s2.Delta().Parent != s1 {
		t.Fatalf("in-universe Remove should produce a delta child of s1")
	}
	sameInterned(t, s2, reintern(db, 1))

	// Remove R(b,c): the block empties but b, c and R survive via other
	// facts, so this still rides the delta path and must drop the block.
	db.Remove(Fact{"R", "b", "c"})
	s3 := db.Interned()
	if s3.Delta() == nil || s3.Delta().Parent != s2 || s3.Delta().Depth != 2 {
		t.Fatalf("expected depth-2 delta child of s2")
	}
	rid, _ := s3.RelID("R")
	kid, _ := s3.ConstID("b")
	if got := s3.Block(rid, kid); got != nil {
		t.Fatalf("emptied block still present: %v", got)
	}
	sameInterned(t, s3, reintern(db, 1))
}

func TestDeltaInternUniverseChangeStartsRoot(t *testing.T) {
	cases := []struct {
		name string
		mut  func(db *Instance)
	}{
		{"new constant", func(db *Instance) { db.AddFact("R", "a", "z") }},
		{"new relation", func(db *Instance) { db.AddFact("T", "a", "b") }},
		{"constant dropped", func(db *Instance) { db.Remove(Fact{"S", "c", "d"}) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			db := FromFacts(
				Fact{"R", "a", "b"},
				Fact{"S", "c", "d"},
			)
			db.Interned()
			tc.mut(db)
			s2 := db.Interned()
			if s2.Delta() != nil {
				t.Fatalf("universe change must start a fresh lineage root")
			}
			sameInterned(t, s2, reintern(db, 1))
		})
	}
}

func TestDeltaInternDirtyOverflowStartsRoot(t *testing.T) {
	db := New()
	for i := 0; i < maxDirtyBlocks+10; i++ {
		db.AddFact("R", fmt.Sprintf("k%03d", i), "v")
	}
	db.Interned()
	// Touch more distinct blocks than the dirty bound within the
	// existing universe.
	for i := 0; i < maxDirtyBlocks+1; i++ {
		db.AddFact("R", fmt.Sprintf("k%03d", i), fmt.Sprintf("k%03d", (i+1)%(maxDirtyBlocks+10)))
	}
	s2 := db.Interned()
	if s2.Delta() != nil {
		t.Fatalf("dirty overflow must start a fresh lineage root")
	}
	sameInterned(t, s2, reintern(db, 1))
}

func TestDeltaInternDepthCap(t *testing.T) {
	// Each step adds a previously absent in-universe fact, so every
	// state is genuinely new (no undo collapse) and the chain must grow
	// until the depth cap restarts it.
	db := New()
	n := MaxLineageDepth + 8
	for i := 0; i < n; i++ {
		db.AddFact("R", fmt.Sprintf("k%03d", i), "v")
	}
	db.Interned()
	for i := 0; i < MaxLineageDepth+5; i++ {
		db.AddFact("R", fmt.Sprintf("k%03d", i), fmt.Sprintf("k%03d", (i+1)%n))
		iv := db.Interned()
		if d := iv.Delta(); d != nil && d.Depth > MaxLineageDepth {
			t.Fatalf("depth %d exceeds cap %d", d.Depth, MaxLineageDepth)
		}
		if i == MaxLineageDepth && iv.Delta() != nil {
			t.Fatalf("chain should have restarted at the depth cap")
		}
	}
	sameInterned(t, db.Interned(), reintern(db, 1))
}

func TestDeltaInternUndoCollapse(t *testing.T) {
	db := FromFacts(Fact{"R", "a", "b"}, Fact{"R", "a", "c"}, Fact{"R", "b", "c"})
	ivA := db.Interned()

	// Departing to state B builds one delta child.
	db.Remove(Fact{"R", "a", "c"})
	ivB := db.Interned()
	if ivB == ivA || ivB.Delta() == nil || ivB.Delta().Parent != ivA {
		t.Fatalf("removal must build a delta child of the original snapshot")
	}

	// Undoing the removal restores state A: the intern layer must hand
	// back the original pointer, not a deeper chain.
	db.AddFact("R", "a", "c")
	if iv := db.Interned(); iv != ivA {
		t.Fatalf("toggle-back interned %p, want the original snapshot %p", iv, ivA)
	}

	// Re-entering state B must reuse the previously built child (the
	// other direction of an A<->B flap), keeping the lineage at depth 1.
	db.Remove(Fact{"R", "a", "c"})
	if iv := db.Interned(); iv != ivB {
		t.Fatalf("redo interned %p, want the departed child %p", iv, ivB)
	}

	// A no-op dirty set (add then remove between two builds) stays on
	// the current snapshot.
	db.AddFact("R", "b", "a")
	db.Remove(Fact{"R", "b", "a"})
	if iv := db.Interned(); iv != ivB {
		t.Fatalf("no-op mutation run interned %p, want %p", iv, ivB)
	}
	sameInterned(t, db.Interned(), reintern(db, 1))
}

func TestDeltaInternChurnEquivalence(t *testing.T) {
	// Randomized-ish churn inside a fixed universe: every snapshot must
	// equal a from-scratch build of the same facts.
	db := New()
	consts := []string{"a", "b", "c", "d", "e"}
	rels := []string{"R", "S"}
	for _, r := range rels {
		for i, k := range consts {
			db.AddFact(r, k, consts[(i+1)%len(consts)])
		}
	}
	db.Interned()
	for step := 0; step < 200; step++ {
		r := rels[step%len(rels)]
		k := consts[step%len(consts)]
		v := consts[(step*3+1)%len(consts)]
		f := Fact{r, k, v}
		if db.Contains(f) && db.Size() > 3 {
			db.Remove(f)
		} else {
			db.Add(f)
		}
		sameInterned(t, db.Interned(), reintern(db, int64(step)))
	}
}

func TestLineageWalk(t *testing.T) {
	db := FromFacts(Fact{"R", "a", "b"}, Fact{"R", "b", "c"}, Fact{"R", "c", "a"})
	s1 := db.Interned()
	db.AddFact("R", "a", "c")
	s2 := db.Interned()
	db.AddFact("R", "b", "a")
	db.AddFact("R", "a", "c") // idempotent no-op, must not dirty anything extra
	s3 := db.Interned()
	db.Remove(Fact{"R", "a", "b"})
	s4 := db.Interned()

	rid, _ := s1.RelID("R")
	ca, _ := s1.ConstID("a")
	cb, _ := s1.ConstID("b")

	// Nearest resident ancestor wins; touched covers only the hop.
	p, touched, ok := Lineage(s4, func(iv *Interned) bool { return iv == s3 })
	if !ok || p != s3 {
		t.Fatalf("lineage to s3: ok=%v parent=%p", ok, p)
	}
	if want := []BlockRef{{rid, ca}}; !reflect.DeepEqual(touched, want) {
		t.Fatalf("touched = %v, want %v", touched, want)
	}

	// Deeper ancestor: touched accumulates and dedups across hops
	// (block R(a,*) is touched on both the s1→s2 and s3→s4 hops).
	p, touched, ok = Lineage(s4, func(iv *Interned) bool { return iv == s1 })
	if !ok || p != s1 {
		t.Fatalf("lineage to s1: ok=%v parent=%p", ok, p)
	}
	if len(touched) != 2 {
		t.Fatalf("touched = %v, want exactly {R(a,*), R(b,*)}", touched)
	}
	seen := map[BlockRef]bool{}
	for _, ref := range touched {
		seen[ref] = true
	}
	if !seen[BlockRef{rid, ca}] || !seen[BlockRef{rid, cb}] {
		t.Fatalf("touched = %v, want refs for keys a and b", touched)
	}

	// No resident ancestor.
	if _, _, ok := Lineage(s4, func(*Interned) bool { return false }); ok {
		t.Fatalf("lineage with nothing resident should fail")
	}
	// A root has no lineage.
	if _, _, ok := Lineage(s1, func(*Interned) bool { return true }); ok {
		t.Fatalf("root snapshot should have no lineage")
	}
	_ = s2
}
