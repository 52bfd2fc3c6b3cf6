package sat

import (
	"math/rand"
	"slices"
	"testing"
)

// TestSlabStaysCompactUnderPatching drives 1,200 purge/retract/weaken
// patch rounds, most of them splicing in a fresh variable as the coNP
// tier's lineage repair does, through solvers whose learned-database
// limit of two runs reduceDB on nearly every conflict. Every solve must
// agree with brute force; after every step the clause store must be
// consistent (checkStore), the slab must hold at most twice its live
// words, and the slab must have been compacted along the way.
func TestSlabStaysCompactUnderPatching(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	rounds, compactions := 0, 0
	for rounds < 1200 {
		n := 4
		s := NewSolver(n)
		s.MaxLearnts = 2
		var clauses [][]int
		last := len(s.slab)
		step := func() {
			t.Helper()
			checkStore(t, s)
			if len(s.slab) < last {
				compactions++
			}
			last = len(s.slab)
		}
		lit := func() int {
			if v := 1 + rng.Intn(n); rng.Intn(2) == 0 {
				return v
			} else {
				return -v
			}
		}
		add := func(width int) {
			var cl []int
			for len(cl) < width {
				if l := lit(); !slices.Contains(cl, l) && !slices.Contains(cl, -l) {
					cl = append(cl, l)
				}
			}
			s.AddClauseFrom(cl)
			clauses = append(clauses, cl)
		}
		for i := 0; i < 10; i++ {
			add(2 + rng.Intn(2))
		}
		for r := 0; r < 60 && !s.RootUnsat(); r++ {
			// Weaken one to three clauses, retracting every root
			// assignment that depends on one of them first, as Patch
			// does; most get a fresh variable.
			var weak, ext []int
			for j := 1 + rng.Intn(3); j > 0; j-- {
				i := rng.Intn(len(clauses))
				l := lit()
				if n < fuzzMaxVars && rng.Intn(3) != 0 {
					n++
					s.ExtendVars(n)
					l = n
				}
				if !slices.Contains(weak, i) && !slices.Contains(clauses[i], l) && !slices.Contains(clauses[i], -l) {
					weak, ext = append(weak, i), append(ext, l)
				}
			}
			s.PurgeLearnts()
			step()
			s.RetractDepending(weak)
			for j, i := range weak {
				s.WeakenClause(i, ext[j])
				clauses[i] = append(clauses[i], ext[j])
				step()
			}
			switch rng.Intn(6) {
			case 0: // a unit: its assignment is a root-level reason
				add(1)
			case 1, 2, 3:
				add(2 + rng.Intn(2))
			}
			checkSolve(t, s, n, clauses, []int{lit(), lit()}[:rng.Intn(3)])
			step()
			rounds++
		}
	}
	if compactions < 20 {
		t.Fatalf("%d compactions over %d rounds, want the slab reclaimed repeatedly", compactions, rounds)
	}
}

// checkStore checks the clause store of s against its invariants: every
// problem and learned clause is a distinct live slab entry; the slab
// accounts exactly for the live and dead words and holds at most twice
// the live ones; every watch entry of a live clause sits on the list of
// one of its first two literals; and every reason on the trail is a live
// clause asserting its literal at position 0.
func checkStore(t *testing.T, s *Solver) {
	t.Helper()
	live := map[cref]bool{}
	words := 1 // the reserved word
	for _, cs := range [][]cref{s.clauses, s.learnts} {
		for _, c := range cs {
			if c <= 0 || int(c) >= len(s.slab) || live[c] || s.slab[c] < 0 || s.slab[c]&hdrRemoved != 0 {
				t.Fatalf("clause cref %d is not a distinct live clause", c)
			}
			live[c] = true
			words += clauseWords(s.slab[c])
		}
	}
	if got := len(s.slab) - s.wasted; got != words {
		t.Fatalf("slab of %d words with %d wasted, but the live clauses hold %d", len(s.slab), s.wasted, words)
	}
	if len(s.slab) > 2*words {
		t.Fatalf("slab of %d words for %d live words, want at most twice", len(s.slab), words)
	}
	for li, ws := range s.watches {
		l := li / 2
		if li%2 == 1 {
			l = -l
		}
		for _, c := range ws {
			if !live[c] {
				if c <= 0 || int(c) >= len(s.slab) || s.slab[c]&hdrRemoved == 0 {
					t.Fatalf("watch list of %d holds cref %d, neither live nor a removed learned clause", l, c)
				}
				continue
			}
			if ls := s.lits(c); len(ls) < 2 || (int(ls[0]) != l && int(ls[1]) != l) {
				t.Fatalf("watch list of %d holds clause %v, which does not watch it", l, ls)
			}
		}
	}
	for _, l := range s.trail {
		if r := s.reason[abs(l)]; r != 0 && (!live[r] || int(s.lits(r)[0]) != l) {
			t.Fatalf("reason of %d is cref %d, not a live clause asserting it", l, r)
		}
	}
}
