package sat

import (
	"math/rand"
	"testing"
)

func TestTrivial(t *testing.T) {
	s := NewSolver(1)
	if err := s.AddClause(1); err != nil {
		t.Fatal(err)
	}
	if s.Solve() != Sat {
		t.Fatal("x1 is satisfiable")
	}
	if !s.Model()[1] {
		t.Error("model must set x1")
	}

	s2 := NewSolver(1)
	s2.AddClause(1)
	s2.AddClause(-1)
	if s2.Solve() != Unsat {
		t.Fatal("x1 ∧ ¬x1 is unsatisfiable")
	}

	s3 := NewSolver(1)
	s3.AddClause()
	if s3.Solve() != Unsat {
		t.Fatal("empty clause is unsatisfiable")
	}
}

func TestTautologyAndDuplicates(t *testing.T) {
	s := NewSolver(2)
	s.AddClause(1, -1)    // tautology: dropped
	s.AddClause(2, 2, 2)  // duplicates collapse to unit
	s.AddClause(-2, 1, 1) // => x1
	if s.NumClauses() != 2 {
		t.Errorf("NumClauses = %d, want 2 (tautology dropped)", s.NumClauses())
	}
	if s.Solve() != Sat {
		t.Fatal("satisfiable")
	}
	m := s.Model()
	if !m[2] || !m[1] {
		t.Errorf("model = %v", m)
	}
}

func TestBadLiteral(t *testing.T) {
	s := NewSolver(2)
	if err := s.AddClause(0); err == nil {
		t.Error("literal 0 must be rejected")
	}
	if err := s.AddClause(3); err == nil {
		t.Error("out-of-range literal must be rejected")
	}
}

func TestSmallUnsatChain(t *testing.T) {
	// x1, x1->x2, x2->x3, ¬x3.
	s := NewSolver(3)
	s.AddClause(1)
	s.AddClause(-1, 2)
	s.AddClause(-2, 3)
	s.AddClause(-3)
	if s.Solve() != Unsat {
		t.Fatal("chain is unsatisfiable")
	}
}

func TestPigeonhole(t *testing.T) {
	// PHP(n+1, n): n+1 pigeons into n holes, unsatisfiable. Classic
	// hard-ish CDCL exercise; keep n small.
	for n := 2; n <= 5; n++ {
		nPigeons := n + 1
		varOf := func(p, h int) int { return p*n + h + 1 }
		s := NewSolver(nPigeons * n)
		for p := 0; p < nPigeons; p++ {
			lits := make([]int, n)
			for h := 0; h < n; h++ {
				lits[h] = varOf(p, h)
			}
			s.AddClause(lits...)
		}
		for h := 0; h < n; h++ {
			for p1 := 0; p1 < nPigeons; p1++ {
				for p2 := p1 + 1; p2 < nPigeons; p2++ {
					s.AddClause(-varOf(p1, h), -varOf(p2, h))
				}
			}
		}
		if got := s.Solve(); got != Unsat {
			t.Fatalf("PHP(%d,%d) = %v, want UNSAT", nPigeons, n, got)
		}
	}
}

func TestGraphColoringSat(t *testing.T) {
	// A 5-cycle is 3-colorable but not 2-colorable.
	edges := [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}}
	build := func(k int) *Solver {
		varOf := func(v, c int) int { return v*k + c + 1 }
		s := NewSolver(5 * k)
		for v := 0; v < 5; v++ {
			lits := make([]int, k)
			for c := 0; c < k; c++ {
				lits[c] = varOf(v, c)
			}
			s.AddClause(lits...)
			for c1 := 0; c1 < k; c1++ {
				for c2 := c1 + 1; c2 < k; c2++ {
					s.AddClause(-varOf(v, c1), -varOf(v, c2))
				}
			}
		}
		for _, e := range edges {
			for c := 0; c < k; c++ {
				s.AddClause(-varOf(e[0], c), -varOf(e[1], c))
			}
		}
		return s
	}
	if build(2).Solve() != Unsat {
		t.Error("C5 is not 2-colorable")
	}
	s := build(3)
	if s.Solve() != Sat {
		t.Error("C5 is 3-colorable")
	}
	// Verify the model is a proper coloring.
	m := s.Model()
	color := make([]int, 5)
	for v := 0; v < 5; v++ {
		color[v] = -1
		for c := 0; c < 3; c++ {
			if m[v*3+c+1] {
				color[v] = c
				break
			}
		}
		if color[v] < 0 {
			t.Fatalf("vertex %d uncolored", v)
		}
	}
	for _, e := range edges {
		if color[e[0]] == color[e[1]] {
			t.Errorf("edge %v monochromatic", e)
		}
	}
}

// bruteForce decides satisfiability by enumeration.
func bruteForce(nVars int, clauses [][]int) bool {
	for mask := 0; mask < 1<<nVars; mask++ {
		ok := true
		for _, c := range clauses {
			sat := false
			for _, l := range c {
				v := l
				if v < 0 {
					v = -v
				}
				val := mask&(1<<(v-1)) != 0
				if (l > 0) == val {
					sat = true
					break
				}
			}
			if !sat {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

// modelSatisfies reports whether model m satisfies clause cl.
func modelSatisfies(m []bool, cl []int) bool {
	for _, l := range cl {
		if v := abs(l); m[v] == (l > 0) {
			return true
		}
	}
	return false
}

func TestRandom3SATAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for it := 0; it < 600; it++ {
		nVars := 3 + rng.Intn(8)
		nClauses := 1 + rng.Intn(5*nVars)
		var clauses [][]int
		s := NewSolver(nVars)
		for i := 0; i < nClauses; i++ {
			k := 1 + rng.Intn(3)
			c := make([]int, k)
			for j := range c {
				v := 1 + rng.Intn(nVars)
				if rng.Intn(2) == 0 {
					v = -v
				}
				c[j] = v
			}
			clauses = append(clauses, c)
			s.AddClause(c...)
		}
		got := s.Solve()
		want := bruteForce(nVars, clauses)
		if (got == Sat) != want {
			t.Fatalf("it=%d: solver=%v brute=%v clauses=%v", it, got, want, clauses)
		}
		if got == Sat {
			// Verify the model satisfies every clause.
			m := s.Model()
			for _, c := range clauses {
				sat := false
				for _, l := range c {
					v := l
					if v < 0 {
						v = -v
					}
					if (l > 0) == m[v] {
						sat = true
						break
					}
				}
				if !sat {
					t.Fatalf("it=%d: model %v falsifies clause %v", it, m, c)
				}
			}
		}
	}
}

func TestSolveAssuming(t *testing.T) {
	// x1 -> x2, x2 -> x3: satisfiable; unsat under {x1, ¬x3}.
	s := NewSolver(3)
	s.AddClause(-1, 2)
	s.AddClause(-2, 3)
	if s.SolveAssuming(1) != Sat {
		t.Fatal("sat under x1")
	}
	m := s.Model()
	if !m[1] || !m[2] || !m[3] {
		t.Errorf("model = %v, want x1..x3 true", m)
	}
	if s.SolveAssuming(1, -3) != Unsat {
		t.Fatal("unsat under {x1, ¬x3}")
	}
	// The formula itself must stay satisfiable after an assumption
	// failure: assumptions are not clauses.
	if s.SolveAssuming(-1) != Sat {
		t.Fatal("sat under ¬x1")
	}
	if s.Model()[1] {
		t.Error("model must falsify x1")
	}
	if s.SolveAssuming() != Sat {
		t.Fatal("sat with no assumptions")
	}
}

func TestSolveAssumingContradictoryAssumptions(t *testing.T) {
	s := NewSolver(2)
	s.AddClause(1, 2)
	if s.SolveAssuming(1, -1) != Unsat {
		t.Error("contradictory assumptions must be unsat")
	}
	if s.SolveAssuming(1) != Sat {
		t.Error("recoverable after contradictory assumptions")
	}
}

func TestIncrementalAddBetweenSolves(t *testing.T) {
	s := NewSolver(3)
	s.AddClause(1, 2)
	if s.SolveAssuming(-1) != Sat {
		t.Fatal("sat under ¬x1")
	}
	// Clauses added after a solve must take effect at the next one,
	// including units against the saved state.
	s.AddClause(-2, 3)
	s.AddClause(-3)
	if s.SolveAssuming(-1) != Unsat {
		t.Fatal("¬x1 forces x2, x2 -> x3, ¬x3: unsat")
	}
	if s.SolveAssuming(1) != Sat {
		t.Fatal("still sat under x1")
	}
	s.AddClause(-1)
	if s.SolveAssuming() != Unsat {
		t.Fatal("now unsat outright")
	}
	if s.SolveAssuming(2) != Unsat {
		t.Fatal("root-level unsat must persist under any assumptions")
	}
}

// TestIncrementalLearnsAcrossCalls re-solves one formula many times and
// checks answers stay stable while learned clauses and model validity
// persist (the warm path the conp tier relies on).
func TestIncrementalLearnsAcrossCalls(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for it := 0; it < 50; it++ {
		nVars := 4 + rng.Intn(6)
		var clauses [][]int
		s := NewSolver(nVars)
		for i := 0; i < 3*nVars; i++ {
			k := 1 + rng.Intn(3)
			c := make([]int, k)
			for j := range c {
				v := 1 + rng.Intn(nVars)
				if rng.Intn(2) == 0 {
					v = -v
				}
				c[j] = v
			}
			clauses = append(clauses, c)
			s.AddClause(c...)
		}
		want := bruteForce(nVars, clauses)
		for call := 0; call < 4; call++ {
			got := s.Solve()
			if (got == Sat) != want {
				t.Fatalf("it=%d call=%d: solver=%v brute=%v", it, call, got, want)
			}
			if got == Sat {
				m := s.Model()
				for _, c := range clauses {
					ok := false
					for _, l := range c {
						if (l > 0) == m[abs(l)] {
							ok = true
							break
						}
					}
					if !ok {
						t.Fatalf("it=%d call=%d: model falsifies %v", it, call, c)
					}
				}
			}
		}
	}
}

// TestSolveAssumingVsClauses cross-checks assumption solving against
// the same literals added as unit clauses on a fresh solver.
func TestSolveAssumingVsClauses(t *testing.T) {
	rng := rand.New(rand.NewSource(78))
	for it := 0; it < 120; it++ {
		nVars := 3 + rng.Intn(6)
		var clauses [][]int
		inc := NewSolver(nVars)
		for i := 0; i < 2*nVars; i++ {
			k := 1 + rng.Intn(3)
			c := make([]int, k)
			for j := range c {
				v := 1 + rng.Intn(nVars)
				if rng.Intn(2) == 0 {
					v = -v
				}
				c[j] = v
			}
			clauses = append(clauses, c)
			inc.AddClause(c...)
		}
		// Several assumption sets against one incremental solver.
		for trial := 0; trial < 3; trial++ {
			var assume []int
			used := map[int]bool{}
			for len(assume) < 1+rng.Intn(3) {
				v := 1 + rng.Intn(nVars)
				if used[v] {
					continue
				}
				used[v] = true
				if rng.Intn(2) == 0 {
					v = -v
				}
				assume = append(assume, v)
			}
			fresh := NewSolver(nVars)
			for _, c := range clauses {
				fresh.AddClause(c...)
			}
			for _, a := range assume {
				fresh.AddClause(a)
			}
			got := inc.SolveAssuming(assume...)
			want := fresh.Solve()
			if got != want {
				t.Fatalf("it=%d assume=%v: incremental=%v fresh=%v", it, assume, got, want)
			}
		}
	}
}

func TestAssumptionPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("out-of-range assumption must panic")
		}
	}()
	s := NewSolver(1)
	s.SolveAssuming(2)
}

func TestStatsAndStatusString(t *testing.T) {
	s := NewSolver(3)
	s.AddClause(1, 2)
	s.AddClause(-1, 3)
	if s.Solve() != Sat {
		t.Fatal("sat expected")
	}
	d, p, c := s.Stats()
	if d == 0 && p == 0 && c == 0 {
		t.Error("expected some search activity")
	}
	for st, want := range map[Status]string{Sat: "SAT", Unsat: "UNSAT", Canceled: "CANCELED", Canceled + 1: "Status(3)"} {
		if got := st.String(); got != want {
			t.Errorf("Status(%d).String() = %q, want %q", int(st), got, want)
		}
	}
}

func TestLuby(t *testing.T) {
	want := []uint64{1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8}
	for i, w := range want {
		if got := luby(uint64(i + 1)); got != w {
			t.Errorf("luby(%d) = %d, want %d", i+1, got, w)
		}
	}
}
