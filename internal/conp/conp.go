// Package conp implements the generic coNP solver tier for CERTAINTY(q):
// a polynomial-size SAT encoding of the complement question "is there a
// repair of db that falsifies q", solved with the incremental CDCL
// solver of internal/sat. It is correct for EVERY path query q
// (CERTAINTY(q) is in coNP, Section 2 of the paper) and is the
// executable counterpart of the SAT-based CQA systems discussed in
// Section 9 (e.g. CAvSAT).
//
// Encoding. One selector variable x_f per fact f, with exactly-one
// constraints per block (a repair picks one fact per block; blocks
// larger than a small threshold use a sequential "ladder" at-most-one,
// so the clause count stays linear in the block size instead of
// quadratic). One reachability variable z[c,i] per constant c and query
// position i, defined by Tseitin equivalences
//
//	z[c,i] ↔ ⋁_{f = q[i](c,d) ∈ db} ( x_f ∧ z[d,i+1] ),  z[·,k] = true,
//
// so that under any repair assignment, z[c,0] holds iff the repair has a
// path with trace q starting at c. Assuming ¬z[c,0] for every constant
// makes the formula satisfiable iff some repair falsifies q. The
// encoding is acyclic in i, hence linear in |db|·|q|.
//
// Compilation and interning. Compile captures the query-side clause
// skeleton — the positions, the relation at each position, the shape of
// the z-chain ladder — once per query; the instance-bound CNF is then
// built on instance.Interned with every variable id computed by
// arithmetic on dense interned ids (selectors from block offsets,
// z[c,i] at constID·k+i) instead of hashed string keys, and every clause
// goes straight into a fresh incremental solver, whose pointer-free
// clause slab is the only copy of the formula. The built encoding
// (selector layout, patch index, and the solver with everything it
// learns) is an Encoding: the plan layer memoizes it per interned
// snapshot, so a re-decision on an unchanged instance re-runs only the
// solver (Solve) — under the same assumptions, warmed by saved phases
// and learned clauses. When the solver is gone (a lineage child took
// it) or its learned database outgrew its budget, the encoding is
// rebuilt by re-encoding its snapshot. A counterexample repair is
// decoded from the model only when the caller asks Solve for one: to
// interned fact ids at solve time, then materialized to a string-keyed
// *instance.Instance on demand. A plain decision reads nothing out of
// the model.
//
// Lineage repair. When a snapshot is a structural delta of a resident
// ancestor (instance.Delta), Patch derives its encoding by patching the
// ancestor's CNF in place instead of re-encoding: removed facts become
// root-level unit clauses over their selectors (literally equivalent to
// the cold-built child, so the learned-clause database survives), and
// added facts get fresh selector and Tseitin variables spliced into the
// live solver while the block's at-least-one and completion clauses are
// weakened in place into their exact cold-built replacements (which
// invalidates learned clauses — the patcher purges them, keeping saved
// phases and variable activities). The ancestor's solver moves to the
// patched encoding; structural shifts the patch cannot express — block
// creation or emptying, a solver already moved on or root-unsatisfiable,
// an exhausted patch budget — fall back to a cold build. See Patch for the
// soundness argument. A patch allocates in proportion to the blocks it
// touches, not to the formula: the clauses it weakens are found through
// the patch index encode recorded, the solver grows its per-variable
// tables amortized, and the dead slab words of weakened (relocated) and
// purged clauses are reclaimed by an amortized compaction.
package conp

import (
	"context"
	"slices"
	"sort"
	"sync"

	"cqa/internal/bitset"
	"cqa/internal/instance"
	"cqa/internal/sat"
	"cqa/internal/words"
)

const (
	// amoPairwiseMax is the largest block encoded with the quadratic
	// pairwise at-most-one; above it the sequential ladder (3m-4 clauses,
	// m-1 auxiliary variables) takes over. At m=5 the pairwise count (10)
	// is level with the ladder's (11) without its extra variables.
	amoPairwiseMax = 5

	// maxLearnedFactor bounds the learned clauses a memoized solver may
	// accumulate across re-decisions, as a multiple of its problem
	// clauses; beyond it the encoding is rebuilt (dropping the learned
	// database) rather than dragging it through every call.
	maxLearnedFactor = 2

	// maxPatchedBlocks bounds the blocks patched cumulatively along one
	// snapshot lineage before the next repair falls back to a cold
	// rebuild, so the weakened-clause and dead-variable residue a chain
	// of patches leaves in the solver cannot grow without bound.
	maxPatchedBlocks = 512
)

// Result reports the outcome of the SAT-based certainty check.
type Result struct {
	Certain bool
	// Vars and Clauses describe the size of the CNF encoding (problem
	// clauses; learned clauses are not counted).
	Vars    int
	Clauses int
	// Decisions, Propagations, Conflicts are solver statistics for this
	// decision (deltas, even when the underlying solver is shared by
	// many warm calls).
	Decisions    uint64
	Propagations uint64
	Conflicts    uint64

	// The counterexample is decoded to interned ids (one chosen value
	// per block) at solve time, when requested, and materialized on
	// demand.
	iv      *instance.Interned
	sel     []int32
	cexOnce sync.Once
	cex     *instance.Instance
}

// Counterexample returns a repair of db falsifying q when Certain is
// false and the result was solved with a counterexample requested
// (IsCertain always requests one), and nil otherwise. The repair is
// materialized to a string-keyed instance on first call and memoized;
// callers that only need the decision never pay for the decode or the
// materialization.
func (r *Result) Counterexample() *instance.Instance {
	if r.Certain || r.iv == nil {
		return nil
	}
	r.cexOnce.Do(func() {
		iv := r.iv
		db := instance.New()
		gb := 0
		for rid := 0; rid < iv.NumRels(); rid++ {
			rel := iv.Rel(int32(rid))
			for _, bl := range iv.RelBlocks(int32(rid)) {
				db.AddFact(rel, iv.Const(bl.Key), iv.Const(r.sel[gb]))
				gb++
			}
		}
		r.cex = db
	})
	return r.cex
}

// Compiled is the query-side half of the SAT tier for one path query:
// the clause skeleton (length, per-position relation, and the grouping
// of positions by relation name that the encoder uses to intern each
// distinct relation once). A Compiled is immutable after Compile and
// safe for concurrent use; the per-encoding solver state is serialized
// internally.
type Compiled struct {
	q words.Word
	k int
	// rels / posOf: the distinct relation names of q and the positions
	// where each occurs — the skeleton's "which z-ladders share a
	// relation" structure.
	rels  []string
	posOf [][]int32
}

// Compile captures the clause skeleton of q for the SAT tier.
func Compile(q words.Word) *Compiled {
	c := &Compiled{q: q.Clone(), k: len(q)}
	idx := make(map[string]int, c.k)
	for i, rel := range c.q {
		j, ok := idx[rel]
		if !ok {
			j = len(c.rels)
			idx[rel] = j
			c.rels = append(c.rels, rel)
			c.posOf = append(c.posOf, nil)
		}
		c.posOf[j] = append(c.posOf[j], int32(i))
	}
	return c
}

// Query returns the compiled query word.
func (c *Compiled) Query() words.Word { return c.q.Clone() }

// IsCertain decides CERTAINTY(q) on db: it encodes db's snapshot and
// solves it from scratch.
func (c *Compiled) IsCertain(db *instance.Instance) *Result {
	iv := db.Interned()
	// A background context never cancels.
	res, _ := c.Solve(context.Background(), iv, c.Encode(iv), true)
	return res
}

// Encode builds the CNF encoding of iv (nil for the empty query, which
// needs none).
func (c *Compiled) Encode(iv *instance.Interned) *Encoding {
	if c.k == 0 {
		return nil
	}
	return c.encode(iv)
}

// Solve decides CERTAINTY(q) on iv with e, an encoding of iv (from
// Encode or Patch), bounded by a context: the SAT search polls ctx and
// the call returns ctx.Err() (with a nil Result) if it is canceled
// mid-solve. The encoding keeps its solver across calls, so a
// re-decision — or a retry after a cancellation — resumes from
// everything learned so far. The falsifying repair is decoded from the
// model only when wantCounterexample is set; otherwise the result's
// Counterexample is nil, and a decision reads nothing out of the model.
func (c *Compiled) Solve(ctx context.Context, iv *instance.Interned, e *Encoding, wantCounterexample bool) (*Result, error) {
	if c.k == 0 {
		return &Result{Certain: true}, nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.ensureSolver(c)
	res := &Result{Vars: e.nVars, Clauses: e.solver.NumClauses()}
	status := e.solver.SolveAssumingCtx(ctx, e.roots...)
	d, p, cf := e.solver.Stats()
	res.Decisions, res.Propagations, res.Conflicts = d-e.prevDec, p-e.prevProp, cf-e.prevConf
	e.prevDec, e.prevProp, e.prevConf = d, p, cf
	switch status {
	case sat.Sat:
		if wantCounterexample {
			res.iv = iv
			res.sel = e.decodeSel()
		}
	case sat.Unsat:
		res.Certain = true
	case sat.Canceled:
		return nil, ctx.Err()
	}
	return res, nil
}

// IsCertain decides CERTAINTY(q) on db via SAT. It works for every path
// query q. It compiles q per call; serving paths hold a Compiled (the
// plan layer does) and memoize its encodings per snapshot.
func IsCertain(db *instance.Instance, q words.Word) *Result {
	return Compile(q).IsCertain(db)
}

// EncodingSize returns the CNF size (vars, clauses) of the encoding for
// db and q without solving; used by tests and benchmarks.
func EncodingSize(db *instance.Instance, q words.Word) (int, int) {
	if len(q) == 0 {
		return 0, 0
	}
	e := Compile(q).encode(db.Interned())
	return e.nVars, e.nClauses
}

// Bytes prices the encoding for a memo's byte budget: four bytes per
// literal, clause and layout entry the encoder emitted, times a factor
// for the solver's clause store plus its watch lists.
func (e *Encoding) Bytes() int64 {
	if e == nil {
		return 0
	}
	return e.bytes
}

// Encoding is the instance-bound CNF for one (query, interned snapshot)
// pair: the dense variable layout and the incremental solver the encoder
// emitted the clauses into. The layout is immutable after encode; solver
// access is serialized by mu (the solver is stateful across
// SolveAssuming calls).
type Encoding struct {
	iv *instance.Interned
	k  int

	// Variable layout. Selector variables come first, one per fact,
	// assigned densely in (relation id, block key) order:
	// x(global block gb, value index vi) = selOff[gb] + vi + 1, with
	// relBlockStart mapping a relation id to its first global block.
	// Then the z ladder at a fixed stride: z(c, i) = zBase + c·k + i + 1.
	// Tseitin and at-most-one ladder auxiliaries follow.
	relBlockStart []int32
	selOff        []int32
	zBase         int32
	nVars         int

	// rids[i] is the interned relation id of q[i] (-1 when absent).
	rids []int32

	// nClauses is the number of problem clauses encode emitted.
	nClauses int

	// roots are the assumption literals ¬z[c,0], one per block of q[0]'s
	// relation: the "no constant starts a q-trace path" constraints kept
	// out of the clause database so the same CNF could be re-solved
	// under other assumption sets.
	roots []int

	// bytes prices the encoding (see Bytes).
	bytes int64

	// Lineage-patch state. A patched encoding shares the variable layout
	// of layoutIV (the cold-encoded ancestor the lineage started from)
	// and carries per-block overrides in blockVars: the current values
	// of every patched block and their selector variables, which may
	// live in the extension region above the ancestor's variable count.
	// The patch index locates clauses in the solver's problem database,
	// by layoutIV's global block number gb and by position i with the
	// index j of a block among the blocks of q[i]'s relation: aloIdx[gb]
	// is the block's at-least-one clause, compIdx[compOff[i]+j] the
	// completion clause z[key,i] → ⋁ …. encode records both as it emits
	// the clauses, and they are shared down the lineage (patches only
	// append clauses and weaken existing ones in place, so the indices
	// stay valid). patched counts blocks patched over the whole lineage,
	// against maxPatchedBlocks.
	layoutIV  *instance.Interned
	blockVars map[int64]blockPatch
	aloIdx    []int32
	compIdx   []int32
	compOff   []int32
	patched   int

	mu                          sync.Mutex
	solver                      *sat.Solver
	prevDec, prevProp, prevConf uint64
}

// blockPatch is the current state of one patched block: parallel value
// and selector-variable slices, in no particular order.
type blockPatch struct {
	vals []int32
	vars []int32
}

// blockKey64 packs a (relation id, block key) pair into one map key.
func blockKey64(rid, key int32) int64 { return int64(rid)<<32 | int64(uint32(key)) }

// zvar returns the reachability variable z[c, i] in e's layout.
func (e *Encoding) zvar(cst int32, i int) int {
	return int(e.zBase) + int(cst)*e.k + i + 1
}

// blockIndex returns the index of relation rid's block keyed by key
// among rid's blocks in iv, or -1 when there is none; blocks are stored
// sorted by interned key id.
func blockIndex(iv *instance.Interned, rid, key int32) int {
	bls := iv.RelBlocks(rid)
	j := sort.Search(len(bls), func(i int) bool { return bls[i].Key >= key })
	if j < len(bls) && bls[j].Key == key {
		return j
	}
	return -1
}

// findBlock locates relation rid's block keyed by key in iv.
func findBlock(iv *instance.Interned, rid, key int32) (instance.InternedBlock, bool) {
	if j := blockIndex(iv, rid, key); j >= 0 {
		return iv.RelBlocks(rid)[j], true
	}
	return instance.InternedBlock{}, false
}

// encode builds the CNF for iv from the compiled skeleton.
func (c *Compiled) encode(iv *instance.Interned) *Encoding {
	k := c.k
	nc := iv.NumConsts()
	nr := iv.NumRels()
	e := &Encoding{iv: iv, k: k, layoutIV: iv}

	// Selector layout: enumerate blocks relation-major in interned
	// order; prefix sums over block sizes give each fact its variable.
	nblocks := 0
	e.relBlockStart = make([]int32, nr+1)
	for r := 0; r < nr; r++ {
		e.relBlockStart[r] = int32(nblocks)
		nblocks += len(iv.RelBlocks(int32(r)))
	}
	e.relBlockStart[nr] = int32(nblocks)
	e.selOff = make([]int32, nblocks+1)
	var off int32
	gb := 0
	for r := 0; r < nr; r++ {
		for _, bl := range iv.RelBlocks(int32(r)) {
			e.selOff[gb] = off
			off += int32(len(bl.Vals))
			gb++
		}
	}
	e.selOff[nblocks] = off
	e.zBase = off
	nVars := int(off) + nc*k // selectors + the full z ladder

	// Intern each distinct relation of q once (the skeleton knows which
	// positions share it) and precompute, per relation, the set of key
	// constants owning a nonempty block — the liveness test for z[d,i]:
	// a position whose block is empty can never start the suffix, so
	// the ladder skips it (the variable stays free and unreferenced).
	e.rids = make([]int32, k)
	keys := make([]bitset.Bits, nr)
	for j, rel := range c.rels {
		rid, ok := iv.RelID(rel)
		if !ok {
			rid = -1
		}
		for _, i := range c.posOf[j] {
			e.rids[i] = rid
		}
		if rid >= 0 && keys[rid] == nil {
			b := bitset.New(nc)
			for _, bl := range iv.RelBlocks(rid) {
				b.Set(int(bl.Key))
			}
			keys[rid] = b
		}
	}

	// live reports whether z[d,i+1] can hold, i.e. whether a fact
	// q[i](c,d) gets a Tseitin variable in the ladder below.
	live := func(i int, d int32) bool {
		return i+1 < k && e.rids[i+1] >= 0 && keys[e.rids[i+1]].Test(int(d))
	}
	// Count the auxiliaries — m-1 ladder variables per block above
	// amoPairwiseMax, one Tseitin variable per live fact at a non-final
	// position — so the solver is sized once; the clauses then go
	// straight into it. nLits counts the literals for Bytes.
	aux := 0
	for r := 0; r < nr; r++ {
		for _, bl := range iv.RelBlocks(int32(r)) {
			if m := len(bl.Vals); m > amoPairwiseMax {
				aux += m - 1
			}
		}
	}
	for i, rid := range e.rids {
		if rid < 0 {
			continue
		}
		for _, bl := range iv.RelBlocks(rid) {
			for _, d := range bl.Vals {
				if live(i, d) {
					aux++
				}
			}
		}
	}
	s := sat.NewSolver(nVars + aux)
	nLits := 0
	add := func(lits ...int) {
		s.AddClauseFrom(lits)
		nLits += len(lits)
	}
	var lits []int

	// Exactly-one selector per block.
	e.aloIdx = make([]int32, nblocks)
	gb = 0
	for r := 0; r < nr; r++ {
		for _, bl := range iv.RelBlocks(int32(r)) {
			base := int(e.selOff[gb]) + 1 // variable of bl.Vals[0]
			m := len(bl.Vals)
			lits = lits[:0]
			for vi := 0; vi < m; vi++ {
				lits = append(lits, base+vi)
			}
			e.aloIdx[gb] = int32(s.NumClauses())
			add(lits...) // at least one
			if m <= amoPairwiseMax {
				for a := 0; a < m; a++ {
					for b := a + 1; b < m; b++ {
						add(-(base + a), -(base + b))
					}
				}
			} else {
				// Sequential ladder: s_i ("some of the first i selectors
				// is true") for i = 1..m-1, linear in m.
				sv := nVars // s_i = sv + i, for i in 1..m-1
				nVars += m - 1
				for i := 1; i < m; i++ {
					add(-(base + i - 1), sv+i) // x_i → s_i
				}
				for i := 2; i < m; i++ {
					add(-(sv + i - 1), sv+i) // s_{i-1} → s_i
				}
				for i := 2; i <= m; i++ {
					add(-(base + i - 1), -(sv + i - 1)) // x_i → ¬s_{i-1}
				}
			}
			gb++
		}
	}

	// The z-chain ladders, from the last position backwards.
	e.compOff = make([]int32, k)
	ncomp := 0
	for i, rid := range e.rids {
		e.compOff[i] = int32(ncomp)
		if rid >= 0 {
			ncomp += len(iv.RelBlocks(rid))
		}
	}
	e.compIdx = make([]int32, ncomp)
	for i := k - 1; i >= 0; i-- {
		rid := e.rids[i]
		if rid < 0 {
			continue
		}
		gbBase := e.relBlockStart[rid]
		for bi, bl := range iv.RelBlocks(rid) {
			z := e.zvar(bl.Key, i)
			selBase := int(e.selOff[gbBase+int32(bi)]) + 1
			lits = append(lits[:0], -z) // z → ⋁ disj, collected below
			for vi, d := range bl.Vals {
				x := selBase + vi
				if i+1 == k {
					// The suffix after the last position is ε: true.
					add(-x, z) // x_f → z
					lits = append(lits, x)
					continue
				}
				if !live(i, d) {
					continue // successor can never start the suffix
				}
				zn := e.zvar(d, i+1)
				nVars++
				a := nVars // a ↔ x_f ∧ z[d,i+1]
				add(-a, x)
				add(-a, zn)
				add(-x, -zn, a)
				add(-a, z)
				lits = append(lits, a)
			}
			e.compIdx[int(e.compOff[i])+bi] = int32(s.NumClauses())
			add(lits...)
		}
	}

	// Assume ¬z[c,0] for every constant that could start a path.
	if e.rids[0] >= 0 {
		for _, bl := range iv.RelBlocks(e.rids[0]) {
			e.roots = append(e.roots, -e.zvar(bl.Key, 0))
		}
	}

	e.nVars = nVars
	e.nClauses = s.NumClauses()
	e.solver = s
	base := int64(nLits+e.nClauses+len(e.selOff)+len(e.relBlockStart)+len(e.rids)) * 4
	e.bytes = base * 5 // ×5: the solver's clause store plus its watch lists
	return e
}

// ensureSolver makes e.solver usable: absent (stolen by a lineage child)
// or dragging too large a learned database, it is rebuilt by re-encoding
// the snapshot, which also resets the patch state to a fresh lineage
// root. Caller holds e.mu.
func (e *Encoding) ensureSolver(c *Compiled) {
	if e.solver != nil && e.solver.NumLearned() <= maxLearnedFactor*e.nClauses+1024 {
		return
	}
	f := c.encode(e.iv)
	e.relBlockStart, e.selOff, e.zBase, e.nVars = f.relBlockStart, f.selOff, f.zBase, f.nVars
	e.rids, e.nClauses, e.roots = f.rids, f.nClauses, f.roots
	e.layoutIV, e.blockVars, e.patched = e.iv, nil, 0
	e.aloIdx, e.compIdx, e.compOff = f.aloIdx, f.compIdx, f.compOff
	e.solver = f.solver
	e.prevDec, e.prevProp, e.prevConf = 0, 0, 0
}

// aloClause returns the problem-clause index of the at-least-one clause
// of relation rid's block j (its index among rid's blocks in layoutIV).
func (e *Encoding) aloClause(rid int32, j int) int {
	return int(e.aloIdx[int(e.relBlockStart[rid])+j])
}

// compClause returns the problem-clause index of the completion clause
// at position i of block j of q[i]'s relation in layoutIV.
func (e *Encoding) compClause(i, j int) int {
	return int(e.compIdx[int(e.compOff[i])+j])
}

// curBlockVars returns the current values of block (rid, key) and their
// selector variables, preferring a lineage-patch override and falling
// back to the layout of layoutIV.
func (e *Encoding) curBlockVars(rid, key int32) ([]int32, []int32, bool) {
	if bp, ok := e.blockVars[blockKey64(rid, key)]; ok {
		return bp.vals, bp.vars, true
	}
	j := blockIndex(e.layoutIV, rid, key)
	if j < 0 {
		return nil, nil, false
	}
	base := e.selOff[int(e.relBlockStart[rid])+j] + 1
	vals := e.layoutIV.RelBlocks(rid)[j].Vals
	vars := make([]int32, len(vals))
	for i := range vars {
		vars[i] = base + int32(i)
	}
	return vals, vars, true
}

// Patch derives the encoding for iv from a resident ancestor encoding
// pe, given touched, the blocks that differ between the ancestor's
// snapshot and iv, by mutating the ancestor's solver in place. Fact removals become root unit
// clauses over the old selectors — conjoined with the block's original
// constraints they are literally equivalent to the cold-built child
// clauses, so even the learned database stays sound and is kept. Fact
// additions extend the solver with fresh selector (and Tseitin)
// variables, add the new at-most-one and definition clauses, and weaken
// the block's at-least-one and completion clauses in place into their
// exact cold-built replacements; weakening invalidates learned clauses,
// so those patches purge the learned database first (phases and
// activities survive). The parent's solver moves to the child;
// re-deciding the parent later re-encodes the parent's snapshot.
//
// Patch returns nil when repairing would be unsound or unprofitable and
// the caller must encode cold: the parent has no live solver (already
// stolen, or derived root unsatisfiability), a touched block was
// created or emptied (the z-liveness structure of the encoding would
// shift), or the lineage exhausted its patch budget. Root-level
// assignments never force a bail: removals only strengthen the formula
// (a root conflict with an existing assignment correctly proves the
// child unsatisfiable), and before any weakening the patch retracts
// every root assignment that could depend on a clause about to be
// weakened (RetractDepending), so the surviving trail holds of the
// weaker formula too.
func (c *Compiled) Patch(pe *Encoding, iv *instance.Interned, touched []instance.BlockRef) *Encoding {
	if c.k == 0 {
		return nil // the empty query has no encoding to patch
	}
	pe.mu.Lock()
	defer pe.mu.Unlock()
	s := pe.solver
	if s == nil || s.RootUnsat() {
		return nil
	}
	if pe.patched+len(touched) > maxPatchedBlocks {
		return nil
	}

	// Plan every edit before mutating anything: a feasibility failure on
	// the last touched block must leave the parent solver untouched.
	type blockEdit struct {
		key64      int64
		rid, key   int32
		lj         int     // the block's index among rid's blocks in layoutIV
		vals, vars []int32 // surviving values and their variables
		added      []int32 // value ids to splice in
		removedVar []int32 // variables of removed values
	}
	edits := make([]blockEdit, 0, len(touched))
	needPurge := false
	for _, ref := range touched {
		bl, ok := findBlock(iv, ref.Rel, ref.Key)
		if !ok {
			return nil // block emptied
		}
		vals, vars, ok := pe.curBlockVars(ref.Rel, ref.Key)
		if !ok {
			return nil // block created
		}
		// A block of a patchable lineage exists from its root on, so it
		// has a layout index (and hence patch-index entries).
		ed := blockEdit{key64: blockKey64(ref.Rel, ref.Key), rid: ref.Rel, key: ref.Key,
			lj: blockIndex(pe.layoutIV, ref.Rel, ref.Key)}
		for j, v := range vals {
			if slices.Contains(bl.Vals, v) {
				ed.vals = append(ed.vals, v)
				ed.vars = append(ed.vars, vars[j])
			} else {
				ed.removedVar = append(ed.removedVar, vars[j])
			}
		}
		for _, v := range bl.Vals {
			if !slices.Contains(vals, v) {
				ed.added = append(ed.added, v)
			}
		}
		if len(ed.added) == 0 && len(ed.removedVar) == 0 {
			continue // touched but content-identical (e.g. add then remove)
		}
		if len(ed.added) > 0 {
			needPurge = true
		}
		edits = append(edits, ed)
	}

	if needPurge {
		// Additions weaken clauses in place, so first drop everything
		// derived through the strong formula: the learned database, and
		// every root assignment depending on a clause about to be
		// weakened — each extended block's at-least-one clause and its
		// key's completion clauses at every matching query position.
		var weak []int
		for _, ed := range edits {
			if len(ed.added) == 0 {
				continue
			}
			weak = append(weak, pe.aloClause(ed.rid, ed.lj))
			for i, rid := range pe.rids {
				if rid == ed.rid {
					weak = append(weak, pe.compClause(i, ed.lj))
				}
			}
		}
		s.PurgeLearnts()
		s.RetractDepending(weak)
	}
	d0, p0, cf0 := s.Stats()
	child := &Encoding{
		iv:            iv,
		k:             pe.k,
		relBlockStart: pe.relBlockStart,
		selOff:        pe.selOff,
		zBase:         pe.zBase,
		nVars:         pe.nVars,
		rids:          pe.rids,
		nClauses:      pe.nClauses,
		roots:         pe.roots,
		bytes:         pe.bytes + 512*int64(len(edits)+1),
		layoutIV:      pe.layoutIV,
		aloIdx:        pe.aloIdx,
		compIdx:       pe.compIdx,
		compOff:       pe.compOff,
		patched:       pe.patched + len(edits),
		solver:        s,
		prevDec:       d0,
		prevProp:      p0,
		prevConf:      cf0,
	}
	child.blockVars = make(map[int64]blockPatch, len(pe.blockVars)+len(edits))
	for k64, bp := range pe.blockVars {
		child.blockVars[k64] = bp
	}

	for _, ed := range edits {
		for _, xv := range ed.removedVar {
			s.AddClauseFrom([]int{-int(xv)})
		}
		for _, d := range ed.added {
			nv := s.NumVars() + 1
			s.ExtendVars(nv)
			for _, w := range ed.vars {
				s.AddClauseFrom([]int{-int(w), -nv})
			}
			s.WeakenClause(child.aloClause(ed.rid, ed.lj), nv)
			for i, rid := range child.rids {
				if rid != ed.rid {
					continue
				}
				z := child.zvar(ed.key, i)
				comp := child.compClause(i, ed.lj)
				if i+1 == child.k {
					s.AddClauseFrom([]int{-nv, z})
					s.WeakenClause(comp, nv)
					continue
				}
				if child.rids[i+1] < 0 {
					continue
				}
				if _, ok := findBlock(iv, child.rids[i+1], d); !ok {
					continue // successor can never start the suffix
				}
				zn := child.zvar(d, i+1)
				a := s.NumVars() + 1
				s.ExtendVars(a)
				s.AddClauseFrom([]int{-a, nv})
				s.AddClauseFrom([]int{-a, zn})
				s.AddClauseFrom([]int{-nv, -zn, a})
				s.AddClauseFrom([]int{-a, z})
				s.WeakenClause(comp, a)
			}
			ed.vals = append(ed.vals, d)
			ed.vars = append(ed.vars, int32(nv))
		}
		child.blockVars[ed.key64] = blockPatch{vals: ed.vals, vars: ed.vars}
	}
	child.nVars = s.NumVars()
	pe.solver = nil
	return child
}

// decodeSel reads the chosen value id of every block out of the model.
// Caller holds e.mu (the model lives in the shared solver). On a
// patched encoding, blocks with a lineage override read their spliced
// variables; everything else falls back to the layout of layoutIV (no
// block set ever shifts along a patchable lineage, so the layout lookup
// always resolves).
func (e *Encoding) decodeSel() []int32 {
	m := e.solver.Model()
	iv := e.iv
	if e.blockVars == nil {
		sel := make([]int32, len(e.selOff)-1)
		gb := 0
		for r := 0; r < iv.NumRels(); r++ {
			for _, bl := range iv.RelBlocks(int32(r)) {
				base := e.selOff[gb] + 1
				sel[gb] = bl.Vals[0]
				for vi := range bl.Vals {
					if m[base+int32(vi)] {
						sel[gb] = bl.Vals[vi]
						break
					}
				}
				gb++
			}
		}
		return sel
	}
	var sel []int32
	for r := 0; r < iv.NumRels(); r++ {
		for _, bl := range iv.RelBlocks(int32(r)) {
			choice := bl.Vals[0]
			if vals, vars, ok := e.curBlockVars(int32(r), bl.Key); ok {
				for j, v := range vars {
					if m[v] {
						choice = vals[j]
						break
					}
				}
			}
			sel = append(sel, choice)
		}
	}
	return sel
}
