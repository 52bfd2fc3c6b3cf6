package sat

import (
	"runtime"
	"testing"
)

func TestExtendVarsSolveWithNewVariables(t *testing.T) {
	s := NewSolver(2)
	if err := s.AddClause(1, 2); err != nil {
		t.Fatal(err)
	}
	if st := s.Solve(); st != Sat {
		t.Fatalf("solve = %v, want SAT", st)
	}
	s.ExtendVars(4)
	if s.NumVars() != 4 {
		t.Fatalf("NumVars = %d, want 4", s.NumVars())
	}
	if err := s.AddClause(3, 4); err != nil {
		t.Fatal(err)
	}
	if err := s.AddClause(-3); err != nil {
		t.Fatal(err)
	}
	if st := s.Solve(); st != Sat {
		t.Fatalf("solve after extend = %v, want SAT", st)
	}
	if m := s.Model(); !m[4] || m[3] {
		t.Fatalf("model = %v, want ¬x3 ∧ x4", m)
	}
}

func TestWeakenClauseAttachedMidStream(t *testing.T) {
	// (x1 ∨ x2) is attached (watching x1, x2) by the first solve; the
	// weakened form (x1 ∨ x2 ∨ x3) must then survive both watched
	// literals going root-false by moving a watch to the appended
	// literal.
	s := NewSolver(2)
	if err := s.AddClause(1, 2); err != nil {
		t.Fatal(err)
	}
	if st := s.Solve(); st != Sat {
		t.Fatalf("solve = %v, want SAT", st)
	}
	s.ExtendVars(3)
	s.WeakenClause(0, 3)
	if n := s.ClauseLen(0); n != 3 {
		t.Fatalf("ClauseLen(0) = %d, want 3", n)
	}
	if err := s.AddClause(-1); err != nil {
		t.Fatal(err)
	}
	if err := s.AddClause(-2); err != nil {
		t.Fatal(err)
	}
	if st := s.Solve(); st != Sat {
		t.Fatalf("solve after weaken = %v, want SAT", st)
	}
	if m := s.Model(); !m[3] {
		t.Fatalf("model = %v, want x3 forced by the weakened clause", m)
	}
	if !s.RootFixed(1) || !s.RootFixed(2) || s.RootUnsat() {
		t.Fatalf("x1, x2 should be root-fixed and the formula satisfiable")
	}
}

func TestPurgeLearntsRetractsLearntRootUnits(t *testing.T) {
	// Deciding x1 propagates x2, x3 into the conflict (¬x2 ∨ ¬x3); the
	// first-UIP clause is the unit (¬x1), asserted at the root with a
	// learnt reason. PurgeLearnts must retract it.
	s := NewSolver(3)
	for _, c := range [][]int{{-1, 2}, {-1, 3}, {-2, -3}} {
		if err := s.AddClause(c...); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Solve(); st != Sat {
		t.Fatalf("solve = %v, want SAT", st)
	}
	if s.NumLearned() == 0 {
		t.Skip("search found a model without learning; nothing to purge")
	}
	if !s.RootFixed(1) {
		t.Fatalf("x1 should be root-fixed by the learnt unit")
	}
	s.PurgeLearnts()
	if s.NumLearned() != 0 {
		t.Fatalf("NumLearned = %d after purge, want 0", s.NumLearned())
	}
	if s.RootFixed(1) {
		t.Fatalf("x1 must be retracted with the learnt database")
	}
	if st := s.Solve(); st != Sat {
		t.Fatalf("re-solve after purge = %v, want SAT", st)
	}
	if m := s.Model(); m[1] {
		t.Fatalf("model = %v, but x1 must be re-derived false", m)
	}
}

// php encodes the pigeonhole principle PHP(p, h): p pigeons in h holes,
// unsatisfiable when p > h and conflict-heavy enough to exercise
// learned-clause deletion.
func php(p, h int) *Solver {
	v := func(i, j int) int { return i*h + j + 1 }
	s := NewSolver(p * h)
	for i := 0; i < p; i++ {
		row := make([]int, h)
		for j := 0; j < h; j++ {
			row[j] = v(i, j)
		}
		if err := s.AddClause(row...); err != nil {
			panic(err)
		}
	}
	for j := 0; j < h; j++ {
		for i := 0; i < p; i++ {
			for k := i + 1; k < p; k++ {
				if err := s.AddClause(-v(i, j), -v(k, j)); err != nil {
					panic(err)
				}
			}
		}
	}
	return s
}

func TestReduceDBKeepsSolverSound(t *testing.T) {
	s := php(7, 6)
	s.MaxLearnts = 8 // force aggressive deletion on every few conflicts
	if st := s.Solve(); st != Unsat {
		t.Fatalf("PHP(7,6) = %v, want UNSAT", st)
	}
	// Every conflict learns one clause, so a learned count below the
	// conflict count proves deletion ran — and the UNSAT answer above
	// proves the problem clauses still carry the refutation without the
	// deleted ones.
	if _, _, conflicts := s.Stats(); uint64(s.NumLearned()) >= conflicts {
		t.Fatalf("NumLearned = %d with %d conflicts, want deletion to have run",
			s.NumLearned(), conflicts)
	}

	sat6 := php(6, 6)
	sat6.MaxLearnts = 8
	if st := sat6.Solve(); st != Sat {
		t.Fatalf("PHP(6,6) = %v, want SAT", st)
	}
	m := sat6.Model()
	used := make([]bool, 6)
	for i := 0; i < 6; i++ {
		cnt := 0
		for j := 0; j < 6; j++ {
			if m[i*6+j+1] {
				if used[j] {
					t.Fatalf("hole %d assigned twice", j)
				}
				used[j] = true
				cnt++
			}
		}
		if cnt == 0 {
			t.Fatalf("pigeon %d unplaced", i)
		}
	}
}

// TestExtendVarsOneAtATimeIsAmortized: an incremental encoder splices
// fresh variables into a live solver one at a time, so ExtendVars must
// grow its tables amortized. 1,024 single-variable extensions of a
// 65,536-variable solver stay under 32 MiB of allocation; copying the
// 2(n+1)-entry watch table on every call would allocate about 3.2 GB.
// The extended solver must then still decide formulas over the new
// variables.
func TestExtendVarsOneAtATimeIsAmortized(t *testing.T) {
	const base, extra = 1 << 16, 1024
	s := NewSolver(base)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < extra; i++ {
		s.ExtendVars(s.NumVars() + 1)
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 32<<20 {
		t.Fatalf("%d single-variable extensions allocated %d bytes, want < 32 MiB", extra, got)
	}
	if s.NumVars() != base+extra {
		t.Fatalf("NumVars = %d, want %d", s.NumVars(), base+extra)
	}

	a, b, c, d := base+1, base+2, base+3, base+extra
	sat := [][]int{{a, b}, {-a, c}, {-c, -b, d}, {-d, -a}}
	for _, cl := range sat {
		s.AddClauseFrom(cl)
	}
	if st := s.SolveAssuming(b); st != Sat {
		t.Fatalf("satisfiable formula over the new variables = %v, want SAT", st)
	}
	m := s.Model()
	if !m[b] {
		t.Fatalf("model violates the assumption x%d", b)
	}
	for _, cl := range sat {
		if !modelSatisfies(m, cl) {
			t.Fatalf("model violates clause %v", cl)
		}
	}

	x, y := base+extra/2, base+extra/2+1
	for _, cl := range [][]int{{x, y}, {x, -y}, {-x, y}, {-x, -y}} {
		s.AddClauseFrom(cl)
	}
	if st := s.SolveAssuming(); st != Unsat {
		t.Fatalf("unsatisfiable formula over the new variables = %v, want UNSAT", st)
	}
}
