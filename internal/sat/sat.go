// Package sat implements an incremental CDCL (conflict-driven clause
// learning) SAT solver over CNF formulas: two-watched-literal
// propagation, first-UIP conflict analysis with clause learning,
// VSIDS activity-based branching over a lazy max-heap with phase
// saving, Luby restarts, and MiniSat-style assumption solving. It is
// the generic substrate for the coNP solver tier (Section 7.2 of the
// paper shows coNP-hardness via SAT; practical CQA systems such as
// CAvSAT, discussed in Section 9, use SAT solvers in the same role).
//
// A Solver is reusable: SolveAssuming resets the search trail to the
// root level, so the same clause database — including everything
// learned by earlier calls — can be re-solved under different
// assumption literals without re-adding clauses. This is what lets the
// coNP tier memoize one encoded CNF per instance snapshot and pay only
// the search (warmed by saved phases and learned clauses) on repeated
// decisions.
//
// Literals are nonzero integers in the DIMACS convention: +v is the
// positive literal of variable v (1-based), -v its negation.
package sat

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"

	"cqa/internal/faultinject"
)

// Status is the result of solving.
type Status int

const (
	// Sat means a satisfying assignment was found.
	Sat Status = iota
	// Unsat means the formula (under the given assumptions, if any) is
	// unsatisfiable.
	Unsat
	// Canceled means SolveAssumingCtx observed its context's
	// cancellation before the search concluded. The solver remains
	// usable: the next solve call resets the trail to the root level as
	// always, and everything learned before the cancellation is kept.
	Canceled
)

func (s Status) String() string {
	switch s {
	case Sat:
		return "SAT"
	case Unsat:
		return "UNSAT"
	case Canceled:
		return "CANCELED"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// ErrBadLiteral is returned by AddClause for zero or out-of-range
// literals.
var ErrBadLiteral = errors.New("sat: literal out of range")

const (
	unassigned int8 = 0
	trueVal    int8 = 1
	falseVal   int8 = -1
)

// Clause store. Every clause, problem and learned, lives in one
// pointer-free []int32 slab, MiniSat's clause arena (Eén and Sörensson,
// SAT 2003), and is named by a cref: the slab index of its header word.
// The header packs the literal count above three flag bits; the literals
// follow, and a learned clause ends with two words holding its float64
// activity. The clause lists, the reasons and the watch lists hold crefs
// rather than pointers, so the garbage collector never scans them. Word 0
// of the slab is reserved, so cref 0 means "no clause".
//
// A clause relocated by WeakenClause, or dropped from the learned
// database, leaves dead words behind; compact reclaims them once they
// outnumber the live words.
type cref int32

const (
	// hdrLearnt marks clauses in the learned database.
	hdrLearnt int32 = 1 << iota
	// hdrRemoved marks learned clauses dropped by reduceDB or
	// PurgeLearnts. Propagation skips and drops their watch entries
	// lazily; compact drops the rest.
	hdrRemoved
	// hdrDormant marks problem clauses attached without watches —
	// root-level units, and clauses satisfied or asserting at the root
	// when attachNew saw them — which a root-trail retraction must
	// re-check (propagation alone cannot revive an unwatched clause).
	hdrDormant

	hdrShift = 3
)

// clauseWords returns the slab words of a clause with header h.
func clauseWords(h int32) int {
	n := 1 + int(h>>hdrShift)
	if h&hdrLearnt != 0 {
		n += 2
	}
	return n
}

// lits returns clause c's literals as a window of the slab, valid until
// the slab next grows or compacts. The two watched literals of an
// attached clause are kept at positions 0 and 1.
func (s *Solver) lits(c cref) []int32 {
	return s.slab[c+1 : c+1+cref(s.slab[c]>>hdrShift)]
}

// act returns learned clause c's activity.
func (s *Solver) act(c cref) float64 {
	i := int(c) + 1 + int(s.slab[c]>>hdrShift)
	return math.Float64frombits(uint64(uint32(s.slab[i])) | uint64(uint32(s.slab[i+1]))<<32)
}

// setAct sets learned clause c's activity.
func (s *Solver) setAct(c cref, a float64) {
	i := int(c) + 1 + int(s.slab[c]>>hdrShift)
	b := math.Float64bits(a)
	s.slab[i], s.slab[i+1] = int32(uint32(b)), int32(uint32(b>>32))
}

// newClause appends a clause over lits to the slab and returns its cref;
// a learned clause starts at activity claInc.
func (s *Solver) newClause(lits []int, learnt bool) cref {
	c := cref(len(s.slab))
	h := int32(len(lits)) << hdrShift
	if learnt {
		h |= hdrLearnt
	}
	s.slab = append(s.slab, h)
	for _, l := range lits {
		s.slab = append(s.slab, int32(l))
	}
	if learnt {
		s.slab = append(s.slab, 0, 0)
		s.setAct(c, s.claInc)
	}
	return c
}

// free accounts for n newly dead slab words and compacts once the dead
// words outnumber the live ones, so the slab never holds more than twice
// its live words.
func (s *Solver) free(n int) {
	if s.wasted += n; s.wasted > len(s.slab)-s.wasted {
		s.compact()
	}
}

// compact copies the live clauses (the problem clauses, then the learned
// ones, each in list order) to a fresh slab and rewrites every cref the
// solver holds: the two clause lists, the reasons of the assignments on
// the trail (unassigned variables have none), and the watch lists, which
// drop the entries of dead clauses and keep their order. A moved
// clause's old header records its new cref as -(cref+1); a live header
// is never negative.
func (s *Solver) compact() {
	old := s.slab
	s.slab = make([]int32, 1, len(old)-s.wasted)
	for _, cs := range [][]cref{s.clauses, s.learnts} {
		for i, c := range cs {
			cs[i] = cref(len(s.slab))
			s.slab = append(s.slab, old[c:int(c)+clauseWords(old[c])]...)
			old[c] = -int32(cs[i]) - 1
		}
	}
	for _, l := range s.trail {
		if v := abs(l); s.reason[v] != 0 {
			s.reason[v] = cref(-old[s.reason[v]] - 1)
		}
	}
	for i, ws := range s.watches {
		n := 0
		for _, c := range ws {
			if h := old[c]; h < 0 {
				ws[n] = cref(-h - 1)
				n++
			}
		}
		s.watches[i] = ws[:n]
	}
	s.wasted = 0
}

// Solver is an incremental CDCL SAT solver instance. Create with
// NewSolver, add clauses with AddClause (or AddClauseFrom), then call
// Solve or SolveAssuming — repeatedly, and interleaved with further
// clause additions. A Solver is stateful and NOT safe for concurrent
// use; callers that share one (the conp encoding memo) serialize.
type Solver struct {
	nVars int
	// slab holds every clause (see cref); wasted counts its dead words.
	slab    []int32
	wasted  int
	clauses []cref // problem clauses, in addition order
	learnts []cref // learned clauses (persist across solves)
	// watches[litIndex] = clauses watching that literal.
	watches [][]cref

	assign   []int8 // by variable (1-based)
	level    []int  // decision level per variable
	reason   []cref // 0 for decisions, assumptions and unassigned variables
	trail    []int  // assigned literals in order
	trailLim []int
	qhead    int // propagation cursor into trail (persists at level 0)

	activity []float64
	varInc   float64
	phase    []int8
	seen     []bool // analyze's per-variable marks, all false between calls
	learnt   []int  // analyze's learned-clause buffer, reused per conflict

	// claInc / learntLimit drive activity-based learned-clause deletion:
	// when the learned database reaches learntLimit, reduceDB drops the
	// lower-activity half (keeping locked and binary clauses) and the
	// limit grows geometrically.
	claInc      float64
	learntLimit int

	// order is the VSIDS branching heap: variables by activity,
	// max-first, with lazy deletion (assigned variables are skipped at
	// pop time and re-inserted on backtrack).
	order    []int32
	orderPos []int32 // orderPos[v] = index in order, -1 when absent

	// attached counts the prefix of clauses whose watches (or root-level
	// units) have been installed; clauses added after the last solve are
	// attached at the start of the next one, under the then-current
	// root-level assignment.
	attached  int
	rootUnsat bool // the formula is unsatisfiable without assumptions

	// needReassert is set by root-trail surgery (PurgeLearnts,
	// RetractDepending): dormant clauses carry no watches, so
	// propagation alone cannot revive one whose satisfying assignment
	// was retracted. When set, the next attachNew re-checks every
	// dormant clause in the attached prefix. Solvers that never retract
	// (the cold path) never pay for the re-check.
	needReassert bool

	propagations uint64
	conflicts    uint64
	decisions    uint64

	// MaxLearnts, when positive, fixes the learned-database size that
	// triggers reduceDB; 0 picks an automatic limit from the problem
	// size.
	MaxLearnts int
}

// NewSolver returns a solver for variables 1..nVars.
func NewSolver(nVars int) *Solver {
	s := &Solver{
		nVars:    nVars,
		slab:     make([]int32, 1),
		watches:  make([][]cref, 2*(nVars+1)),
		assign:   make([]int8, nVars+1),
		level:    make([]int, nVars+1),
		reason:   make([]cref, nVars+1),
		activity: make([]float64, nVars+1),
		phase:    make([]int8, nVars+1),
		seen:     make([]bool, nVars+1),
		order:    make([]int32, 0, nVars),
		orderPos: make([]int32, nVars+1),
		varInc:   1,
		claInc:   1,
	}
	// All activities start equal, so insertion order is a valid heap.
	for v := 1; v <= nVars; v++ {
		s.orderPos[v] = int32(len(s.order))
		s.order = append(s.order, int32(v))
	}
	return s
}

// NumVars returns the number of variables.
func (s *Solver) NumVars() int { return s.nVars }

// NumClauses returns the number of problem clauses added.
func (s *Solver) NumClauses() int { return len(s.clauses) }

// NumLearned returns the number of clauses learned so far. Callers that
// keep a Solver hot across many re-decisions can use it to decide when
// the learned-clause database has outgrown its usefulness and a rebuild
// is cheaper than carrying it.
func (s *Solver) NumLearned() int { return len(s.learnts) }

// Stats returns (decisions, propagations, conflicts), cumulative across
// all Solve calls.
func (s *Solver) Stats() (uint64, uint64, uint64) {
	return s.decisions, s.propagations, s.conflicts
}

// ExtendVars grows the variable range to 1..n (a no-op when n does not
// exceed the current range). New variables start unassigned, with zero
// activity and default phase, and join the branching order. Incremental
// encoders use it to splice fresh selector and Tseitin variables into a
// live solver when a snapshot delta adds facts, one variable at a time:
// every per-variable table, the watch table included, grows by append,
// so a run of single-variable extensions costs amortized O(1) each
// rather than a copy of the whole table per call.
func (s *Solver) ExtendVars(n int) {
	if n <= s.nVars {
		return
	}
	grow := n - s.nVars
	s.watches = append(s.watches, make([][]cref, 2*grow)...)
	s.assign = append(s.assign, make([]int8, grow)...)
	s.level = append(s.level, make([]int, grow)...)
	s.reason = append(s.reason, make([]cref, grow)...)
	s.activity = append(s.activity, make([]float64, grow)...)
	s.phase = append(s.phase, make([]int8, grow)...)
	s.seen = append(s.seen, make([]bool, grow)...)
	s.orderPos = append(s.orderPos, make([]int32, grow)...)
	for v := s.nVars + 1; v <= n; v++ {
		s.orderInsert(int32(v))
	}
	s.nVars = n
}

// WeakenClause appends lit to problem clause i (in addition order). The
// caller must guarantee lit is in range and not already present; this is
// the incremental encoder's way to turn a clause into its weaker
// replacement (e.g. extending a block's at-least-one constraint with a
// newly added fact's selector) without rebuilding the solver. A clause
// cannot grow in place in the slab, so the weakened clause is a copy at
// the slab's end with lit appended: clause i and the clause's watch
// entries, if it has any, are repointed at it where they stand, so the
// watched literals and every list order are unchanged. The clause must
// not be the reason for an assignment, which RetractDepending (below)
// guarantees for every clause passed to it.
//
// Soundness is the caller's burden: any root-level assignment that was
// derived *through* the strong version of the clause remains on the
// trail and may not hold of the weaker formula. Call
// RetractDepending with every clause about to be weakened (after
// PurgeLearnts, whose learned clauses embed the same strong
// consequences) before the first WeakenClause of a patch.
func (s *Solver) WeakenClause(i, lit int) {
	// A dormant clause (root unit, or satisfied at attach time) stays
	// dormant: appending a literal cannot unsatisfy it, and if the
	// assignment satisfying it is ever retracted, the scheduled re-check
	// installs watches for the grown clause.
	old := s.clauses[i]
	h := s.slab[old]
	n := int(h >> hdrShift)
	c := cref(len(s.slab))
	s.slab = append(s.slab, h+1<<hdrShift)
	s.slab = append(s.slab, s.slab[old+1:int(old)+1+n]...)
	s.slab = append(s.slab, int32(lit))
	s.clauses[i] = c
	if i < s.attached && h&hdrDormant == 0 {
		for _, l := range s.slab[c+1 : c+3] {
			ws := s.watches[litIndex(int(l))]
			for j := range ws {
				if ws[j] == old {
					ws[j] = c
					break
				}
			}
		}
	}
	s.free(clauseWords(h))
}

// ClauseLen returns the current length of problem clause i.
func (s *Solver) ClauseLen(i int) int { return len(s.lits(s.clauses[i])) }

// RootFixed reports whether variable v is assigned at the root level
// (decision level 0). Root assignments persist across SolveAssuming
// calls, so an incremental encoder that weakens clauses must refuse to
// patch around a variable the solver has already fixed forever.
func (s *Solver) RootFixed(v int) bool {
	return v >= 1 && v <= s.nVars && s.assign[v] != unassigned && s.level[v] == 0
}

// RootUnsat reports whether the solver has derived unsatisfiability of
// the clause database itself (no assumptions). The flag is sticky;
// weakening clauses cannot clear it, so patching a root-unsat solver is
// unsound and callers must rebuild instead.
func (s *Solver) RootUnsat() bool { return s.rootUnsat }

// PurgeLearnts drops the entire learned-clause database and retracts
// every root-level assignment that was derived through it, keeping saved
// phases and variable activities. Incremental encoders call it before
// weakening clauses: learned clauses (and root units asserted by them)
// are consequences of the strong formula and may not hold of the weaker
// one, while assignments propagated purely from surviving problem
// clauses are re-derived from the re-propagation this schedules. The
// dropped clauses' watch entries are removed lazily, by propagation or
// by the next compaction, so a purge costs O(trail + learned) rather
// than a pass over every watch list.
func (s *Solver) PurgeLearnts() {
	s.cancelUntil(0)
	// Root assignments are trail-ordered, so everything from the first
	// learnt-reasoned entry onward may transitively depend on the
	// learned database: retract the suffix and re-propagate from
	// scratch on the next solve.
	cut := -1
	for i, l := range s.trail {
		if r := s.reason[abs(l)]; r != 0 && s.slab[r]&hdrLearnt != 0 {
			cut = i
			break
		}
	}
	s.retractFrom(cut)
	if len(s.learnts) == 0 {
		return
	}
	dead := 0
	for _, c := range s.learnts {
		s.slab[c] |= hdrRemoved
		dead += clauseWords(s.slab[c])
	}
	s.learnts = s.learnts[:0]
	s.free(dead)
}

// retractFrom unassigns every trail entry from index cut onward (a
// no-op when cut < 0), keeping saved phases, and schedules a full
// re-propagation plus unit-clause re-assertion at the next solve. The
// trail is derivation-ordered, so retracting a suffix leaves a prefix
// derived only from entries that survive. Must run at decision level 0.
func (s *Solver) retractFrom(cut int) {
	if cut < 0 {
		return
	}
	for i := len(s.trail) - 1; i >= cut; i-- {
		v := abs(s.trail[i])
		s.phase[v] = s.assign[v]
		s.assign[v] = unassigned
		s.reason[v] = 0
		if s.orderPos[v] < 0 {
			s.orderInsert(int32(v))
		}
	}
	s.trail = s.trail[:cut]
	s.qhead = 0
	// A retracted entry may have been asserted by a length-1 clause,
	// which no propagation can re-derive (units carry no watches).
	s.needReassert = true
}

// RetractDepending retracts every root-level assignment that may
// transitively depend on one of the given problem clauses (by addition
// index) or on any learned clause. Because the trail is
// derivation-ordered, cutting at the first entry whose reason is one of
// those clauses removes every assignment derived after — and hence
// possibly through — it; the surviving prefix was propagated from
// untouched problem clauses alone. Callers about to weaken clauses use
// this (after PurgeLearnts) to make in-place weakening sound without
// per-variable feasibility checks: no assignment that could depend on a
// strong clause outlives it. The next solve re-propagates from scratch
// and re-derives whatever still follows from the weakened formula.
func (s *Solver) RetractDepending(clauseIdx []int) {
	s.cancelUntil(0)
	if len(clauseIdx) == 0 {
		return
	}
	mark := make(map[cref]bool, len(clauseIdx))
	for _, i := range clauseIdx {
		mark[s.clauses[i]] = true
	}
	cut := -1
	for i, l := range s.trail {
		if r := s.reason[abs(l)]; r != 0 && (s.slab[r]&hdrLearnt != 0 || mark[r]) {
			cut = i
			break
		}
	}
	s.retractFrom(cut)
}

// locked reports whether c is the reason for a current assignment (its
// asserting literal is kept at lits[0] by construction); locked clauses
// must survive learned-clause deletion.
func (s *Solver) locked(c cref) bool {
	l := int(s.slab[c+1])
	return s.value(l) == trueVal && s.reason[abs(l)] == c
}

// bumpClause raises a learned clause's activity, rescaling the whole
// database when activities overflow.
func (s *Solver) bumpClause(c cref) {
	a := s.act(c) + s.claInc
	s.setAct(c, a)
	if a > 1e20 {
		for _, l := range s.learnts {
			s.setAct(l, s.act(l)*1e-20)
		}
		s.claInc *= 1e-20
	}
}

// reduceDB halves the learned-clause database, dropping the clauses of
// lowest activity while keeping binary clauses (cheap and valuable) and
// locked clauses (reasons for current assignments). This bounds the
// watch lists a long-lived incremental solver drags through every
// propagation without throwing the whole database away.
func (s *Solver) reduceDB() {
	sort.Slice(s.learnts, func(i, j int) bool { return s.act(s.learnts[i]) < s.act(s.learnts[j]) })
	half := len(s.learnts) / 2
	n, dead := 0, 0
	for i, c := range s.learnts {
		if i < half && s.slab[c]>>hdrShift > 2 && !s.locked(c) {
			s.slab[c] |= hdrRemoved
			dead += clauseWords(s.slab[c])
			continue
		}
		s.learnts[n] = c
		n++
	}
	s.learnts = s.learnts[:n]
	s.free(dead)
}

func litIndex(l int) int {
	if l > 0 {
		return 2 * l
	}
	return -2*l + 1
}

// value returns the value of literal l: its variable's value, negated
// for a negative literal (falseVal = -trueVal, unassigned = 0).
func (s *Solver) value(l int) int8 {
	if l < 0 {
		return -s.assign[-l]
	}
	return s.assign[l]
}

// AddClause adds a clause (a disjunction of literals). Duplicate
// literals are removed; tautologies are ignored. Adding an empty clause
// makes the formula trivially unsatisfiable. Clauses may be added
// between Solve calls; watches are installed at the next solve.
func (s *Solver) AddClause(lits ...int) error {
	seen := make(map[int]bool, len(lits))
	var out []int
	for _, l := range lits {
		if l == 0 || l > s.nVars || l < -s.nVars {
			return fmt.Errorf("%w: %d (nVars=%d)", ErrBadLiteral, l, s.nVars)
		}
		if seen[-l] {
			return nil // tautology: always satisfied
		}
		if !seen[l] {
			seen[l] = true
			out = append(out, l)
		}
	}
	s.clauses = append(s.clauses, s.newClause(out, false))
	return nil
}

// AddClauseFrom adds lits as a clause, skipping the validation,
// deduplication and tautology filtering of AddClause. The caller must
// guarantee the literals are nonzero, in range, distinct, and
// non-tautological — encoders that construct clauses structurally
// (internal/conp) satisfy this by construction and skip the per-clause
// map AddClause pays for it. The literals are copied into the clause
// slab; lits is not retained.
func (s *Solver) AddClauseFrom(lits []int) {
	s.clauses = append(s.clauses, s.newClause(lits, false))
}

func (s *Solver) watch(c cref, lit int) {
	i := litIndex(lit)
	s.watches[i] = append(s.watches[i], c)
}

// attachOne installs watches for clause c under the current root-level
// assignment, or reports it dormant: satisfied by a root-true literal,
// or asserted as a root unit (including length-1 clauses), and
// therefore carrying no watches until a retraction re-checks it. ok is
// false on a root-level conflict. Must run at decision level 0.
func (s *Solver) attachOne(c cref) (dormant, ok bool) {
	// Move up to two non-false literals to the front; a clause with a
	// root-level true literal is satisfied for as long as that
	// assignment stands and needs no watches until then.
	lits := s.lits(c)
	satisfied := false
	nf := 0
	for i, l := range lits {
		switch s.value(int(l)) {
		case trueVal:
			satisfied = true
		case unassigned:
			if nf < 2 {
				lits[nf], lits[i] = lits[i], lits[nf]
				nf++
			}
		}
		if satisfied {
			break
		}
	}
	if satisfied {
		return true, true
	}
	switch nf {
	case 0: // every literal root-false (or the clause is empty)
		return false, false
	case 1:
		return true, s.enqueue(int(lits[0]), c)
	}
	s.watch(c, int(lits[0]))
	s.watch(c, int(lits[1]))
	return false, true
}

// attachNew installs watches (or root-level units) for clauses added
// since the last solve, under the current root-level assignment. After
// root-trail surgery (needReassert) it first re-checks every dormant
// clause in the attached prefix, re-asserting units and re-attaching
// clauses whose satisfying assignment was retracted — without this, an
// unwatched clause would silently drop out of propagation once its
// root assignment is gone. It reports false on a root-level conflict.
// Must run at decision level 0.
func (s *Solver) attachNew() bool {
	if s.needReassert {
		s.needReassert = false
		for _, c := range s.clauses[:s.attached] {
			if s.slab[c]&hdrDormant == 0 {
				continue
			}
			dormant, ok := s.attachOne(c)
			if !ok {
				s.rootUnsat = true
				return false
			}
			if !dormant {
				s.slab[c] &^= hdrDormant
			}
		}
	}
	// The per-clause logic below mirrors attachOne; it stays inline
	// because this loop attaches every clause of a cold build and Go
	// will not inline a function with loops.
	for ; s.attached < len(s.clauses); s.attached++ {
		c := s.clauses[s.attached]
		lits := s.lits(c)
		satisfied := false
		nf := 0
		for i, l := range lits {
			switch s.value(int(l)) {
			case trueVal:
				satisfied = true
			case unassigned:
				if nf < 2 {
					lits[nf], lits[i] = lits[i], lits[nf]
					nf++
				}
			}
			if satisfied {
				break
			}
		}
		if satisfied {
			s.slab[c] |= hdrDormant
			continue
		}
		switch nf {
		case 0: // every literal root-false (or the clause is empty)
			s.rootUnsat = true
			return false
		case 1:
			s.slab[c] |= hdrDormant
			if !s.enqueue(int(lits[0]), c) {
				s.rootUnsat = true
				return false
			}
		default:
			s.watch(c, int(lits[0]))
			s.watch(c, int(lits[1]))
		}
	}
	return true
}

func (s *Solver) enqueue(l int, from cref) bool {
	v, val := l, trueVal
	if l < 0 {
		v, val = -l, falseVal
	}
	if a := s.assign[v]; a != unassigned {
		return a == val
	}
	s.assign[v] = val
	s.level[v] = len(s.trailLim)
	s.reason[v] = from
	s.trail = append(s.trail, l)
	return true
}

func (s *Solver) decisionLevel() int { return len(s.trailLim) }

// propagate runs unit propagation; it returns a conflicting clause or 0.
func (s *Solver) propagate() cref {
	for s.qhead < len(s.trail) {
		l := s.trail[s.qhead]
		s.qhead++
		s.propagations++
		// Clauses watching ¬l must be updated. The list is compacted in
		// place: a clause that moves its watch moves it to a literal that
		// is not false, so never onto ¬l's own list, and the kept entries
		// keep their order. Entries of removed learned clauses are
		// dropped here (see hdrRemoved).
		falseLit := int32(-l)
		negIdx := litIndex(-l)
		ws := s.watches[negIdx]
		if len(ws) == 0 {
			continue
		}
		kept := ws[:0]
		slab := s.slab // propagation never grows the slab
		for wi := 0; wi < len(ws); wi++ {
			c := ws[wi]
			h := slab[c]
			if h&hdrRemoved != 0 {
				continue
			}
			// Find the two watched literals; by convention they are
			// kept in lits[0], lits[1].
			if lits := slab[c+1 : c+1+cref(h>>hdrShift)]; len(lits) >= 2 {
				if lits[0] == falseLit {
					lits[0], lits[1] = lits[1], lits[0]
				}
				// lits[1] == ¬l now (it was watched).
				if s.value(int(lits[0])) == trueVal {
					kept = append(kept, c)
					continue
				}
				moved := false
				for k := 2; k < len(lits); k++ {
					if s.value(int(lits[k])) != falseVal {
						lits[1], lits[k] = lits[k], lits[1]
						s.watch(c, int(lits[1]))
						moved = true
						break
					}
				}
				if moved {
					continue // no longer watching ¬l
				}
				kept = append(kept, c)
				if !s.enqueue(int(lits[0]), c) {
					// Conflict: restore remaining watches.
					kept = append(kept, ws[wi+1:]...)
					s.watches[negIdx] = kept
					return c
				}
				continue
			}
			kept = append(kept, c)
		}
		if len(kept) < len(ws) {
			s.watches[negIdx] = kept
		}
	}
	return 0
}

// Branching-order heap: a binary max-heap on activity with lazy
// deletion. Rescaling multiplies every activity uniformly, so it never
// disturbs the heap order.

func (s *Solver) orderSiftUp(i int) {
	order, pos, act := s.order, s.orderPos, s.activity
	v := order[i]
	av := act[v]
	for i > 0 {
		parent := (i - 1) / 2
		p := order[parent]
		if av <= act[p] {
			break
		}
		order[i] = p
		pos[p] = int32(i)
		i = parent
	}
	order[i] = v
	pos[v] = int32(i)
}

func (s *Solver) orderSiftDown(i int) {
	order, pos, act := s.order, s.orderPos, s.activity
	n := len(order)
	v := order[i]
	av := act[v]
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		c := order[child]
		ac := act[c]
		if r := child + 1; r < n {
			if rc := order[r]; act[rc] > ac {
				child, c, ac = r, rc, act[rc]
			}
		}
		if ac <= av {
			break
		}
		order[i] = c
		pos[c] = int32(i)
		i = child
	}
	order[i] = v
	pos[v] = int32(i)
}

// orderInsert adds v to the heap. The common case, v no more active
// than its parent slot (every variable of a conflict-free search), is
// the first comparison of orderSiftUp, done inline.
func (s *Solver) orderInsert(v int32) {
	i := len(s.order)
	s.order = append(s.order, v)
	if i > 0 && s.activity[v] <= s.activity[s.order[(i-1)/2]] {
		s.orderPos[v] = int32(i)
		return
	}
	s.orderSiftUp(i)
}

// orderPop removes and returns the highest-activity variable, or 0 when
// the heap is empty.
func (s *Solver) orderPop() int32 {
	n := len(s.order)
	if n == 0 {
		return 0
	}
	v := s.order[0]
	s.orderPos[v] = -1
	last := s.order[n-1]
	s.order = s.order[:n-1]
	if n > 1 {
		s.order[0] = last
		s.orderSiftDown(0)
	}
	return v
}

func (s *Solver) bumpVar(v int) {
	s.activity[v] += s.varInc
	if s.activity[v] > 1e100 {
		for i := 1; i <= s.nVars; i++ {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
	}
	if s.orderPos[v] >= 0 {
		s.orderSiftUp(int(s.orderPos[v]))
	}
}

// analyze performs first-UIP conflict analysis, returning the learned
// clause (with the asserting literal first) and the backjump level. The
// clause is returned in a buffer the next call reuses.
func (s *Solver) analyze(confl cref) ([]int, int) {
	learnt := append(s.learnt[:0], 0) // placeholder for asserting literal
	seen := s.seen
	counter := 0
	var p int
	idx := len(s.trail) - 1
	c := confl

	for {
		if s.slab[c]&hdrLearnt != 0 {
			s.bumpClause(c)
		}
		for _, cl := range s.lits(c) {
			l := int(cl)
			if l == p { // skip the asserting path literal
				continue
			}
			v := abs(l)
			if seen[v] || s.level[v] == 0 {
				continue
			}
			seen[v] = true
			s.bumpVar(v)
			if s.level[v] == s.decisionLevel() {
				counter++
			} else {
				learnt = append(learnt, l)
			}
		}
		// Pick the next literal on the trail to resolve.
		for !seen[abs(s.trail[idx])] {
			idx--
		}
		p = s.trail[idx]
		v := abs(p)
		seen[v] = false
		counter--
		if counter == 0 {
			learnt[0] = -p
			break
		}
		c = s.reason[v]
		idx--
	}

	// Backjump level = max level among learnt[1:]. Their marks are the
	// only ones still set (every current-level mark was cleared as it
	// was resolved), so clearing them leaves seen all false.
	back := 0
	for i := 1; i < len(learnt); i++ {
		v := abs(learnt[i])
		seen[v] = false
		if lv := s.level[v]; lv > back {
			back = lv
		}
	}
	// Move a literal of the backjump level to position 1 (watch order).
	for i := 1; i < len(learnt); i++ {
		if s.level[abs(learnt[i])] == back {
			learnt[1], learnt[i] = learnt[i], learnt[1]
			break
		}
	}
	s.learnt = learnt
	return learnt, back
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func (s *Solver) cancelUntil(level int) {
	if s.decisionLevel() <= level {
		return
	}
	lim := s.trailLim[level]
	trail, assign, phase, reason, pos := s.trail, s.assign, s.phase, s.reason, s.orderPos
	for i := len(trail) - 1; i >= lim; i-- {
		v := abs(trail[i])
		phase[v] = assign[v]
		assign[v] = unassigned
		reason[v] = 0
		if pos[v] < 0 {
			s.orderInsert(int32(v))
		}
	}
	s.trail = s.trail[:lim]
	s.trailLim = s.trailLim[:level]
	if s.qhead > lim {
		s.qhead = lim
	}
}

func (s *Solver) pickBranchVar() int {
	for {
		v := s.orderPop()
		if v == 0 || s.assign[v] == unassigned {
			return int(v)
		}
	}
}

// luby computes the Luby restart sequence value for index i (1-based).
func luby(i uint64) uint64 {
	for k := uint64(1); ; k++ {
		if i == (1<<k)-1 {
			return 1 << (k - 1)
		}
		if i < (1<<k)-1 {
			return luby(i - (1 << (k - 1)) + 1)
		}
	}
}

// Solve searches for a satisfying assignment. On Sat, Model reports the
// assignment. It is SolveAssuming with no assumptions.
func (s *Solver) Solve() Status { return s.SolveAssuming() }

// SolveAssuming searches for a satisfying assignment with every
// assumption literal held true. It first resets the trail to the root
// level, so a Solver can be re-solved any number of times — under
// different assumptions, or after further AddClause calls — while
// keeping its learned clauses and saved phases; re-deciding an
// unchanged formula is therefore much cheaper than the first call.
// Unsat means unsatisfiable *under the assumptions*; the formula
// without them may still be satisfiable. Assumption literals must be
// nonzero and in range (the method panics otherwise: unlike clauses,
// assumptions come from the encoder, not from user input).
func (s *Solver) SolveAssuming(assumptions ...int) Status {
	return s.SolveAssumingCtx(context.Background(), assumptions...)
}

// ctxCheckEvery is how many search-loop iterations (decisions or
// conflicts) SolveAssumingCtx lets pass between context polls: frequent
// enough that a canceled caller is released within microseconds, sparse
// enough that the poll never shows up next to unit propagation.
const ctxCheckEvery = 512

// SolveAssumingCtx is SolveAssuming bounded by a context: the search
// loop polls ctx every few hundred iterations and returns Canceled once
// the context is done. Cancellation is safe at any point — the solver
// keeps its clause database, learned clauses, and saved phases, and the
// next solve call resets the trail to the root level as always.
func (s *Solver) SolveAssumingCtx(ctx context.Context, assumptions ...int) Status {
	if s.rootUnsat {
		return Unsat
	}
	if ctx.Err() != nil {
		return Canceled
	}
	// Chaos failpoint: fires before any solver state is touched, so the
	// memoized encoding, trail, and learned clauses survive an injected
	// fault intact and a retry re-solves warm. Status has no error arm,
	// so an injected error escalates to a panic for the recover()
	// boundary upstream.
	if err := faultinject.Fire(faultinject.SATSolve); err != nil {
		panic(err)
	}
	for _, a := range assumptions {
		if a == 0 || a > s.nVars || a < -s.nVars {
			panic(fmt.Sprintf("sat: assumption literal %d out of range (nVars=%d)", a, s.nVars))
		}
	}
	s.cancelUntil(0)
	if !s.attachNew() {
		return Unsat
	}
	if s.propagate() != 0 {
		s.rootUnsat = true
		return Unsat
	}
	s.learntLimit = s.MaxLearnts
	if s.learntLimit <= 0 {
		s.learntLimit = len(s.clauses) / 2
		if s.learntLimit < 1024 {
			s.learntLimit = 1024
		}
	}

	restart := uint64(1)
	budget := 100 * luby(restart)
	confSinceRestart := uint64(0)

	// Every loop iteration is one decision or one conflict, so polling
	// the context on an iteration counter bounds the time to observe a
	// cancellation by a few hundred propagate/analyze rounds.
	sinceCtxCheck := 0

	for {
		if sinceCtxCheck++; sinceCtxCheck >= ctxCheckEvery {
			sinceCtxCheck = 0
			if ctx.Err() != nil {
				return Canceled
			}
		}
		confl := s.propagate()
		if confl != 0 {
			s.conflicts++
			confSinceRestart++
			if s.decisionLevel() == 0 {
				s.rootUnsat = true
				return Unsat
			}
			learnt, back := s.analyze(confl)
			s.cancelUntil(back)
			c := s.newClause(learnt, true)
			s.learnts = append(s.learnts, c)
			if len(learnt) >= 2 {
				s.watch(c, learnt[0])
				s.watch(c, learnt[1])
			}
			s.enqueue(learnt[0], c)
			s.varInc /= 0.95
			s.claInc /= 0.999
			if len(s.learnts) >= s.learntLimit {
				s.reduceDB()
				s.learntLimit += s.learntLimit / 10
			}
			continue
		}
		if confSinceRestart >= budget {
			restart++
			budget = 100 * luby(restart)
			confSinceRestart = 0
			s.cancelUntil(0)
			continue
		}
		// Pending assumptions decide before free branching; assumption
		// i is the decision of level i+1, so a restart (or a backjump
		// below an assumption level) re-pushes them here.
		if lvl := s.decisionLevel(); lvl < len(assumptions) {
			a := assumptions[lvl]
			switch s.value(a) {
			case falseVal:
				// The formula plus the earlier assumptions implies ¬a.
				return Unsat
			case trueVal:
				// Already implied: open an empty decision level so the
				// level ↔ assumption indexing stays aligned.
				s.trailLim = append(s.trailLim, len(s.trail))
			default:
				s.decisions++
				s.trailLim = append(s.trailLim, len(s.trail))
				s.enqueue(a, 0)
			}
			continue
		}
		v := s.pickBranchVar()
		if v == 0 {
			return Sat // all variables assigned
		}
		s.decisions++
		s.trailLim = append(s.trailLim, len(s.trail))
		lit := v
		if s.phase[v] == falseVal {
			lit = -v
		}
		s.enqueue(lit, 0)
	}
}

// Model returns the satisfying assignment found by the last Sat call:
// Model()[v] is the value of variable v (index 0 unused). It is only
// meaningful immediately after a call that returned Sat; a later
// SolveAssuming call invalidates it.
func (s *Solver) Model() []bool {
	m := make([]bool, s.nVars+1)
	for v := 1; v <= s.nVars; v++ {
		m[v] = s.assign[v] == trueVal
	}
	return m
}
