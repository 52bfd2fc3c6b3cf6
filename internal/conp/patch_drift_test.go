package conp

import (
	"testing"

	"cqa/internal/instance"
	"cqa/internal/words"
	"cqa/internal/workload"
)

// TestPatchDriftRepairsRealisticInstance drives the patcher with
// drifting (non-toggling) mutations on a workload-sized instance, where
// level-0 propagation fixes many selector and z variables at the
// solver's root. Root assignments must not defeat patching: removals
// only strengthen the formula, and additions retract every root
// assignment depending on a clause about to be weakened before
// weakening it, so each step must repair in place rather than rebuild —
// and still agree with a cold build.
func TestPatchDriftRepairsRealisticInstance(t *testing.T) {
	db := workload.Random(workload.Config{
		Relations:    []string{"R", "X", "Y", "A"},
		Constants:    500,
		Facts:        1000,
		ConflictRate: 0.3,
		Seed:         42,
	})
	q := words.MustParse("ARRX")
	cp := compileMemo(q)
	cp.IsCertain(db) // cold build for the lineage root

	// Pick a conflicting R block and three constants outside it, then
	// rotate the block through them: each step removes the previous
	// extra value and adds the next, so no state ever recurs (the
	// intern layer cannot undo-collapse) and every step reaches patch.
	var key string
	var cands []string
	for _, bid := range db.ConflictingBlocks() {
		if bid.Rel != "R" {
			continue
		}
		in := map[string]bool{}
		for _, v := range db.Block(bid.Rel, bid.Key) {
			in[v] = true
		}
		for _, c := range db.Adom() {
			if !in[c] && len(cands) < 3 {
				cands = append(cands, c)
			}
		}
		if len(cands) == 3 {
			key = bid.Key
			break
		}
		cands = cands[:0]
	}
	if key == "" {
		t.Fatal("workload instance has no conflicting R block with spare constants")
	}

	const steps = 24
	cur := -1
	for i := 0; i < steps; i++ {
		if cur >= 0 {
			db.Remove(instance.Fact{Rel: "R", Key: key, Val: cands[cur]})
		}
		cur = (cur + 1) % len(cands)
		db.Add(instance.Fact{Rel: "R", Key: key, Val: cands[cur]})

		got := cp.IsCertain(db)
		want := Compile(q).IsCertain(db.Clone())
		if got.Certain != want.Certain {
			t.Fatalf("step %d: patched = %v, cold = %v", i, got.Certain, want.Certain)
		}
		if !got.Certain {
			cex := got.Counterexample()
			if cex == nil || !cex.IsRepairOf(db) || cex.Satisfies(q) {
				t.Fatalf("step %d: invalid counterexample from patched encoding", i)
			}
		}
	}
	if s := cp.encs.Stats(); s.Repairs != steps {
		t.Errorf("stats = %+v, want every drift step repaired (%d)", s, steps)
	}
}
