package plan

import (
	"math/rand"
	"slices"
	"testing"

	"cqa/internal/instance"
	"cqa/internal/repairs"
	"cqa/internal/words"
)

// randomZ draws a fact of Z, a relation no memoWords word reads.
func randomZ(rng *rand.Rand, consts []string) instance.Fact {
	return instance.Fact{Rel: "Z", Key: consts[rng.Intn(len(consts))], Val: consts[rng.Intn(len(consts))]}
}

// plantPath adds a path with trace w from a random constant of the
// memo universe, so that random instances are yes-instances more often.
func plantPath(rng *rand.Rand, db *instance.Instance, w words.Word) {
	c := memoUniverse[rng.Intn(len(memoUniverse))]
	for _, rel := range w {
		next := memoUniverse[rng.Intn(len(memoUniverse))]
		db.AddFact(rel, c, next)
		c = next
	}
}

// TestMetamorphicDecisions checks four relations that the semantics of
// CERTAINTY(q) imply, for every memoWords word by default dispatch and
// by every sound forced tier. Each random instance has at most 12 facts,
// half of them start from a path with trace q, and each is decided by
// the exhaustive repair oracle first; every later decision must agree
// with that oracle.
//
//   - Adding or removing facts of Z never changes the decision, whether
//     the edit stays in the universe or brings a fresh constant. Each
//     edit is decided on the plan that decided the instance before it,
//     so the plan's memo repairs along the lineage, and on a fresh plan.
//   - Renaming the constants by a permutation that reorders them, so
//     that the interned ids permute, keeps the decision.
//   - Inserting the same facts in a shuffled order keeps the decision:
//     the interned snapshot does not depend on insertion order.
//   - Adding a fact in a new (relation, key) block keeps a yes-instance
//     a yes-instance: path queries are monotone, and every repair of
//     the new instance extends a repair of the old one.
func TestMetamorphicDecisions(t *testing.T) {
	rng := rand.New(rand.NewSource(2121))
	for _, w := range memoWords {
		q := words.MustParse(w)
		p := Compile(q)
		methods := soundMethods(p.Class())
		decides := func(what string, pl *Plan, db *instance.Instance, want bool) {
			t.Helper()
			for _, m := range methods {
				res, err := pl.Execute(db, Options{Force: m})
				if err != nil {
					t.Fatalf("%s force=%q %s on %s: %v", w, m, what, db, err)
				}
				if res.Certain != want {
					t.Fatalf("%s force=%q %s on %s: decided %v, want %v", w, m, what, db, res.Certain, want)
				}
			}
		}
		for it := 0; it < 150; it++ {
			db := instance.New()
			if rng.Intn(2) == 0 {
				plantPath(rng, db, q)
			}
			for n := 1 + rng.Intn(12); db.Size() < n; {
				db.Add(randomFact(rng))
			}
			want := repairs.IsCertain(db, q)
			decides("on the base instance", p, db, want)

			// Z enters: a new relation, so a new lineage root.
			db.Add(randomZ(rng, memoUniverse))
			db.Add(randomZ(rng, memoUniverse))
			decides("after Z enters", p, db, want)

			// In-universe Z edits: delta snapshots, so p repairs.
			added := randomZ(rng, db.Adom())
			db.Add(added)
			decides("after an in-universe Z add", p, db, want)
			decides("after an in-universe Z add, fresh plan", Compile(q), db, want)
			if len(db.Block("Z", added.Key)) > 1 {
				db.Remove(added)
				decides("after a Z remove", p, db, want)
				decides("after a Z remove, fresh plan", Compile(q), db, want)
			}

			// A Z fact with a fresh constant changes the universe.
			db.AddFact("Z", db.Adom()[0], "fresh")
			decides("after a fresh-constant Z add", p, db, want)
			decides("after a fresh-constant Z add, fresh plan", Compile(q), db, want)

			// Rename by a permutation of the active domain that reorders
			// it; the adom is sorted, so the interned ids permute.
			adom := db.Adom()
			perm := rng.Perm(len(adom))
			for slices.IsSorted(perm) { // the identity
				perm = rng.Perm(len(adom))
			}
			renamed := instance.New()
			for _, f := range db.Facts() {
				renamed.AddFact(f.Rel, adom[perm[slices.Index(adom, f.Key)]], adom[perm[slices.Index(adom, f.Val)]])
			}
			decides("after renaming constants", p, renamed, want)
			decides("after renaming constants, fresh plan", Compile(q), renamed, want)

			// Insert the same facts in a shuffled order. A source of its
			// own keeps the instances the other relations draw unchanged.
			facts := append([]instance.Fact(nil), db.Facts()...)
			rand.New(rand.NewSource(int64(it))).Shuffle(len(facts), func(i, j int) { facts[i], facts[j] = facts[j], facts[i] })
			shuffled := instance.FromFacts(facts...)
			decides("after inserting in a shuffled order", p, shuffled, want)
			decides("after inserting in a shuffled order, fresh plan", Compile(q), shuffled, want)

			if !want {
				continue
			}
			for i := 0; i < 3; i++ {
				f := randomFact(rng)
				if rng.Intn(3) == 0 {
					f.Key = "new"
				}
				if db.HasBlock(f.Rel, f.Key) {
					continue
				}
				db.Add(f)
				if !repairs.IsCertain(db, q) {
					t.Fatalf("%s: adding %s in a new block made %s a no-instance for the oracle", w, f, db)
				}
				decides("after adding a fact in a new block", p, db, true)
			}
		}
		if s := p.MemoStats(); s.Repairs == 0 {
			t.Errorf("%s: no lineage repair ran: %+v", w, s)
		}
	}
}
