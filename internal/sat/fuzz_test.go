package sat

import (
	"math/rand"
	"slices"
	"testing"
)

// fuzzMaxVars bounds the variables of a fuzzed solver, so every solve
// can be checked by enumerating all assignments.
const fuzzMaxVars = 12

// FuzzIncrementalSolver drives one solver through the operation
// sequences an incremental encoder (internal/conp's Patch) performs —
// adding clauses, extending the variable range one variable at a time,
// purging learned clauses and retracting root assignments before
// weakening a clause in place, and solving under assumptions — and
// checks every solve against brute force over the current clause set.
// A learned-database limit of two runs reduceDB on nearly every
// conflict, so removed learned clauses linger in the watch lists and
// propagation must skip them.
//
// Input bytes decode as: the initial variable count, then a stream of
// operations, each an opcode byte followed by its operand bytes.
func FuzzIncrementalSolver(f *testing.F) {
	f.Add([]byte{2, 0, 2, 1, 2, 0, 2, 3, 2, 6, 0})
	f.Add([]byte{3, 0, 2, 1, 3, 5, 0, 0, 0, 2, 6, 1, 1, 4, 5, 1, 0, 2, 6, 2, 3, 4})
	// A purge followed by a weakening: a solver that kept propagating the
	// purged learned clauses, which stay in the watch lists until
	// propagation meets them, would call this satisfiable formula
	// unsatisfiable.
	f.Add([]byte("$07197001\"9770000100$%010000000010"))
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 48; i++ {
		in := make([]byte, 64+rng.Intn(160))
		rng.Read(in)
		f.Add(in)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		n := 1 + next()%8
		s := NewSolver(n)
		s.MaxLearnts = 2
		var clauses [][]int
		lit := func() int {
			b := next()
			v := 1 + (b>>1)%n
			if b&1 != 0 {
				return -v
			}
			return v
		}
		for ops := 0; len(data) > 0 && ops < 96; ops++ {
			switch op := next() % 8; {
			case op < 4: // AddClauseFrom: 1–4 distinct variables
				if len(clauses) >= 48 {
					continue
				}
				var cl []int
				for k := 1 + next()%4; k > 0; k-- {
					if l := lit(); !slices.Contains(cl, l) && !slices.Contains(cl, -l) {
						cl = append(cl, l)
					}
				}
				s.AddClauseFrom(cl)
				clauses = append(clauses, cl)
			case op == 4: // ExtendVars, one variable at a time
				if n < fuzzMaxVars {
					n++
					s.ExtendVars(n)
				}
			case op == 5: // purge, retract, then weaken one clause in place
				i, b := next(), next()
				if s.RootUnsat() || len(clauses) == 0 {
					continue
				}
				i %= len(clauses)
				l := lit()
				if b&1 != 0 && n < fuzzMaxVars {
					n++ // a fresh variable, as Patch weakens with
					s.ExtendVars(n)
					l = n
				}
				if slices.Contains(clauses[i], l) || slices.Contains(clauses[i], -l) {
					continue
				}
				s.PurgeLearnts()
				s.RetractDepending([]int{i})
				s.WeakenClause(i, l)
				clauses[i] = append(clauses[i], l)
			default: // SolveAssuming under 0–3 random assumptions
				assume := make([]int, next()%4)
				for j := range assume {
					assume[j] = lit()
				}
				checkSolve(t, s, n, clauses, assume)
			}
		}
		checkSolve(t, s, n, clauses, nil)
	})
}

// checkSolve solves s under assume and checks the status against brute
// force over clauses (each assumption as a unit clause), and a Sat
// model against every clause and assumption.
func checkSolve(t *testing.T, s *Solver, n int, clauses [][]int, assume []int) {
	t.Helper()
	st := s.SolveAssuming(assume...)
	withAssume := append([][]int(nil), clauses...)
	for _, a := range assume {
		withAssume = append(withAssume, []int{a})
	}
	want := bruteForce(n, withAssume)
	if (st == Sat) != want || (st != Sat && st != Unsat) {
		t.Fatalf("SolveAssuming(%v) = %v over %d vars, brute force satisfiable = %v; clauses %v", assume, st, n, want, clauses)
	}
	if s.RootUnsat() && bruteForce(n, clauses) {
		t.Fatalf("RootUnsat on a satisfiable formula over %d vars: %v", n, clauses)
	}
	if st != Sat {
		return
	}
	m := s.Model()
	for _, cl := range withAssume {
		if !modelSatisfies(m, cl) {
			t.Fatalf("model %v violates %v (assumptions %v)", m, cl, assume)
		}
	}
}
