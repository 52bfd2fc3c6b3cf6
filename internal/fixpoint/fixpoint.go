// Package fixpoint implements the polynomial-time algorithm of Figure 5
// of the paper, which decides CERTAINTY(q) for every path query q
// satisfying condition C3 (Section 6.1). It computes the fixed point of
// the relation
//
//	N = { ⟨c, u⟩ | db ⊢q ⟨c, u⟩ }
//
// where db ⊢q ⟨c, u⟩ means that every repair of db has a path that
// starts in c and is accepted by S-NFA(q, u) (Definition 10). States u
// are prefixes of q, identified by their length.
//
// Two implementations are provided: a worklist algorithm running in
// O(|q|²·|db|) and a naive round-based variant that records the
// iteration trace of Figure 6. The package also implements the
// ⪯q-minimal repair construction of Lemmas 9 and 10, which yields
// counterexample repairs for no-instances, and states sets
// (Definition 7) for machine-checking Lemma 8.
package fixpoint

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"

	"cqa/internal/automata"
	"cqa/internal/bitset"
	"cqa/internal/instance"
	"cqa/internal/par"
	"cqa/internal/words"
)

// Pair is a member ⟨C, U⟩ of the relation N: every repair has a path
// starting at C accepted by S-NFA(q, q[:U]).
type Pair struct {
	C string
	U int
}

// Result is the output of the fixpoint computation. The relation N is
// stored interned (a bitset over constant-id × prefix-length pairs);
// Has, Pairs and NMap translate back to the string world.
type Result struct {
	Query words.Word
	// Certain reports whether some ⟨c, ε⟩ ∈ N, which by Lemma 7 and
	// Corollary 1 decides CERTAINTY(q) when q satisfies C3.
	Certain bool
	// Starts is the set of constants c with ⟨c, ε⟩ ∈ N: the constants
	// that start an accepted path in every repair (Corollary 1), in
	// sorted order.
	Starts []string

	iv        *instance.Interned
	nq        int         // len(Query)
	bits      bitset.Bits // ⟨c, u⟩ ∈ N at bit c*(nq+1)+u
	startBits bitset.Bits // bit c set iff ⟨c, ε⟩ ∈ N (Starts, interned)
}

// StartBits returns the set of constants c with ⟨c, ε⟩ ∈ N as a bitset
// over interned constant ids — the interned form of Starts, used by the
// NL tier's avoidance predicate. The slice is shared and must not be
// modified.
func (r *Result) StartBits() []uint64 { return r.startBits }

// Has reports whether ⟨c, u⟩ ∈ N.
func (r *Result) Has(c string, u int) bool {
	if u < 0 || u > r.nq || r.iv == nil {
		return false
	}
	id, ok := r.iv.ConstID(c)
	if !ok {
		return false
	}
	return r.bits.Test(int(id)*(r.nq+1) + u)
}

// Pairs returns N as an explicit pair list, sorted by interned constant
// id (equivalently, by constant name) and then by prefix length.
func (r *Result) Pairs() []Pair {
	if r.iv == nil {
		return nil
	}
	stride := r.nq + 1
	var out []Pair
	for c := 0; c < r.iv.NumConsts(); c++ {
		for u := 0; u < stride; u++ {
			if r.bits.Test(c*stride + u) {
				out = append(out, Pair{C: r.iv.Const(int32(c)), U: u})
			}
		}
	}
	return out
}

// NMap materializes N in the map form used before interning:
// NMap()[c][u] reports ⟨c, u⟩ ∈ N. Intended for tests and diagnostics,
// not hot paths.
func (r *Result) NMap() map[string]map[int]bool {
	out := make(map[string]map[int]bool)
	for _, p := range r.Pairs() {
		if out[p.C] == nil {
			out[p.C] = make(map[int]bool)
		}
		out[p.C][p.U] = true
	}
	return out
}

// Compiled is the query-dependent machinery of the Figure 5 algorithm,
// precomputed once per query so that repeated solves over many
// instances skip rebuilding NFA(q) and its backward ε-transition table.
// The instance-side half is a Binding (see Bind); the plan layer
// memoizes bindings per interned snapshot and repairs them along the
// snapshot lineage (Rebind), so a Compiled holds no per-instance state.
// A Compiled value is safe for concurrent use.
type Compiled struct {
	q   words.Word
	nfa *automata.NFA
	// backSources[u] lists the states w with a backward ε-transition
	// into u (longer prefixes ending with the same relation as q[:u]).
	backSources [][]int

	// parSolves/parShards count engagements of the partitioned solver
	// (see SolveBound); surfaced via ParallelStats.
	parSolves atomic.Uint64
	parShards atomic.Uint64
}

// Bytes prices a binding for a memo's byte budget. Segments shared
// between positions are counted once per binding; segments a repair
// shares with the parent binding are charged to both — a conservative
// over-count that errs toward evicting sooner.
func (b *Binding) Bytes() int64 {
	total := int64(4 * len(b.base))
	seen := make(map[*posBinding]bool, len(b.pos))
	for _, pb := range b.pos {
		if pb == nil || seen[pb] {
			continue
		}
		seen[pb] = true
		total += 4 * int64(len(pb.blockKey)+len(pb.pendingInit)+len(pb.refStart)+len(pb.refList))
	}
	return total
}

// Binding is the instance-side half of the Figure 5 machinery for one
// (compiled query, interned instance snapshot) pair: per query position
// v, one block state per block of relation q[v], plus a CSR index from
// successor constant to the block states it decrements. The per-position
// tables depend only on (relation, snapshot), so positions sharing a
// relation share one posBinding — and a lineage repair shares every
// posBinding whose relation no touched block belongs to with the parent
// binding, rebuilding only the touched relations' segments.
// A Binding is immutable after construction; per-solve mutable state
// (the pending counters and the bitset) is copied out per call, so one
// binding serves any number of concurrent solves.
type Binding struct {
	nc  int           // number of interned constants
	pos []*posBinding // per position v; nil when q[v] is absent from the instance
	// base[v] is the global block-state offset of position v (the
	// per-solve pending array concatenates the positions' segments);
	// base[len(q)] is the total block-state count.
	base []int32
}

// posBinding is one position's (equivalently, one relation's) segment:
// block states in ascending key order and the value→states CSR.
type posBinding struct {
	// blockKey[i] is the key constant id of local block state i;
	// pendingInit[i] its initial successor counter (block size).
	blockKey    []int32
	pendingInit []int32
	// refList[refStart[c]:refStart[c+1]] lists the local block states
	// whose block contains value c.
	refStart []int32 // len nc+1
	refList  []int32
}

// buildPos constructs the segment for relation rid of iv.
func buildPos(iv *instance.Interned, rid int32, nc int) *posBinding {
	blocks := iv.RelBlocks(rid)
	pb := &posBinding{
		blockKey:    make([]int32, len(blocks)),
		pendingInit: make([]int32, len(blocks)),
		refStart:    make([]int32, nc+1),
	}
	total := 0
	counts := make([]int32, nc)
	for _, bl := range blocks {
		total += len(bl.Vals)
		for _, val := range bl.Vals {
			counts[val]++
		}
	}
	var sum int32
	for c := 0; c < nc; c++ {
		pb.refStart[c] = sum
		sum += counts[c]
	}
	pb.refStart[nc] = sum
	pb.refList = make([]int32, total)
	// Second pass: fill the CSR lists, reusing counts as fill cursors.
	next := counts
	copy(next, pb.refStart[:nc])
	for i, bl := range blocks {
		pb.blockKey[i] = bl.Key
		pb.pendingInit[i] = int32(len(bl.Vals))
		for _, val := range bl.Vals {
			pb.refList[next[val]] = int32(i)
			next[val]++
		}
	}
	return pb
}

// Bind constructs the interned transition tables for iv from scratch,
// sharing one segment across positions with the same relation. With
// workers > 1 the per-relation segments build on up to workers
// goroutines (distinct relations write disjoint posBindings); the
// binding is identical either way.
func (cp *Compiled) Bind(iv *instance.Interned, workers int) *Binding {
	n := len(cp.q)
	nc := iv.NumConsts()
	b := &Binding{nc: nc, pos: make([]*posBinding, n), base: make([]int32, n+1)}
	posRel := make([]int32, n) // rid per position, -1 when absent
	slot := make(map[int32]int, n)
	rids := make([]int32, 0, n)
	for v := 0; v < n; v++ {
		rid, ok := iv.RelID(cp.q[v])
		if !ok {
			posRel[v] = -1
			continue
		}
		posRel[v] = rid
		if _, dup := slot[rid]; !dup {
			slot[rid] = len(rids)
			rids = append(rids, rid)
		}
	}
	built := make([]*posBinding, len(rids))
	if workers > len(rids) {
		workers = len(rids)
	}
	rb := par.Blocks(len(rids), workers, 1)
	par.Run(len(rb)-1, func(w int) {
		for i := rb[w]; i < rb[w+1]; i++ {
			built[i] = buildPos(iv, rids[i], nc)
		}
	})
	for v := 0; v < n; v++ {
		if posRel[v] >= 0 {
			b.pos[v] = built[slot[posRel[v]]]
		}
	}
	b.finalize()
	return b
}

// Rebind derives iv's binding from an ancestor's (the lineage repair):
// segments of relations owning a block in touched — the blocks that
// differ between the ancestor's snapshot and iv — are rebuilt against
// iv, all other segments are shared with the parent binding (their
// relations' interned blocks are aliased along the lineage, so the
// tables are bit-identical).
func (cp *Compiled) Rebind(parent *Binding, iv *instance.Interned, touched []instance.BlockRef) *Binding {
	n := len(cp.q)
	touchedRel := make(map[int32]bool, len(touched))
	for _, t := range touched {
		touchedRel[t.Rel] = true
	}
	b := &Binding{nc: parent.nc, pos: make([]*posBinding, n), base: make([]int32, n+1)}
	rebuilt := make(map[int32]*posBinding, len(touchedRel))
	for v := 0; v < n; v++ {
		rid, ok := iv.RelID(cp.q[v])
		if !ok {
			continue
		}
		if !touchedRel[rid] {
			b.pos[v] = parent.pos[v]
			continue
		}
		pb := rebuilt[rid]
		if pb == nil {
			pb = buildPos(iv, rid, b.nc)
			rebuilt[rid] = pb
		}
		b.pos[v] = pb
	}
	b.finalize()
	return b
}

// finalize computes the per-position global block-state offsets.
func (b *Binding) finalize() {
	var sum int32
	for v, pb := range b.pos {
		b.base[v] = sum
		if pb != nil {
			sum += int32(len(pb.blockKey))
		}
	}
	b.base[len(b.pos)] = sum
}

// Compile precomputes the query-side artifacts of the fixpoint
// algorithm for q.
func Compile(q words.Word) *Compiled {
	n := len(q)
	c := &Compiled{
		q:           q.Clone(),
		nfa:         automata.New(q),
		backSources: make([][]int, n+1),
	}
	for u := 0; u <= n; u++ {
		c.backSources[u] = c.nfa.BackwardSources(u)
	}
	return c
}

// Query returns the compiled query word.
func (c *Compiled) Query() words.Word { return c.q.Clone() }

// NFA returns the compiled NFA(q).
func (c *Compiled) NFA() *automata.NFA { return c.nfa }

// Solve runs the worklist implementation of the Figure 5 algorithm on
// db with the precompiled query machinery. The Certain field of the
// result decides CERTAINTY(q) whenever q satisfies C3. The entire
// fixpoint iteration runs on interned state: the relation N is a bitset
// indexed by constID*(|q|+1)+u, the worklist carries packed int pairs,
// and the Iterative Rule walks the binding's CSR successor index — no
// string hashing or per-pair allocation.
func (cp *Compiled) Solve(db *instance.Instance) *Result {
	return cp.SolveInterned(db.Interned())
}

// SolveInterned is Solve on an interned snapshot directly: it binds iv
// from scratch and runs the single-core worklist.
func (cp *Compiled) SolveInterned(iv *instance.Interned) *Result {
	return cp.solve(iv, cp.Bind(iv, 1))
}

// solve is the single-core worklist over a binding of iv.
func (cp *Compiled) solve(iv *instance.Interned, b *Binding) *Result {
	n := len(cp.q)
	nc := iv.NumConsts()
	res := &Result{Query: cp.q.Clone(), iv: iv, nq: n}
	if n == 0 {
		res.Certain = true // empty query: trivially certain
		res.bits = bitset.New(nc)
		res.startBits = bitset.New(nc)
		for c := 0; c < nc; c++ {
			res.bits.Set(c)
			res.startBits.Set(c)
		}
		res.Starts = append(res.Starts, iv.Consts()...)
		return res
	}

	stride := n + 1
	bits := bitset.New(nc * stride)
	// pending[i] counts the successors of block state i not yet known to
	// satisfy ⟨y, v+1⟩, concatenating the positions' segments at their
	// base offsets; the binding's counters are copied so the binding
	// itself stays immutable under concurrent Solve calls.
	pending := make([]int32, b.base[n])
	for v, pb := range b.pos {
		if pb != nil {
			copy(pending[b.base[v]:], pb.pendingInit)
		}
	}

	// Initialization step: ⟨c, q⟩ for every c ∈ adom(db).
	queue := make([]int32, 0, nc)
	for c := 0; c < nc; c++ {
		idx := c*stride + n
		bits.Set(idx)
		queue = append(queue, int32(idx))
	}
	cp.drain(b, bits, pending, queue)

	res.bits = bits
	res.startBits = bitset.New(nc)
	for c := 0; c < nc; c++ {
		if bits.Test(c * stride) {
			res.Certain = true
			res.startBits.Set(c)
			res.Starts = append(res.Starts, iv.Const(int32(c)))
		}
	}
	return res
}

// drain runs the worklist to its fixpoint from queue. Every queued pair
// must be set in bits, and pending must hold the block states' counters
// after every decrement made so far; drain extends both. The
// single-core solve seeds it with the initialization step's pairs, and
// a parallel solve with its frontier once that falls below
// drainThreshold.
func (cp *Compiled) drain(b *Binding, bits bitset.Bits, pending, queue []int32) {
	stride := len(cp.q) + 1
	// Backward closure: when ⟨c, u⟩ is derived forward, also add ⟨c, w⟩
	// for every state w with a backward ε-transition to u, i.e. every
	// longer prefix w ending with the same relation name as u.
	backSources := cp.backSources
	add := func(idx int) {
		if !bits.Test(idx) {
			bits.Set(idx)
			queue = append(queue, int32(idx))
		}
	}
	for head := 0; head < len(queue); head++ {
		idx := int(queue[head])
		u := idx % stride
		if u == 0 {
			continue
		}
		v := u - 1
		pb := b.pos[v]
		if pb == nil {
			continue
		}
		c := idx / stride
		vbase := b.base[v]
		// Each ref fires at most once: the pair ⟨c, v+1⟩ is dequeued
		// exactly once and block values are distinct, so pending hits 0
		// at most once per block state.
		for _, ls := range pb.refList[pb.refStart[c]:pb.refStart[c+1]] {
			bs := vbase + ls
			pending[bs]--
			if pending[bs] == 0 {
				base := int(pb.blockKey[ls]) * stride
				add(base + v)
				for _, w := range backSources[v] {
					add(base + w)
				}
			}
		}
	}
}

// Trace records one round of the naive implementation: the pairs added
// in that round, mirroring the table of Figure 6.
type Trace struct {
	Round int
	Added []Pair
}

// SolveNaive runs the round-based implementation of Figure 5: in each
// round the Iterative Rule is applied to all pairs derivable from the
// current N. It returns the result together with the per-round trace
// (Figure 6 of the paper). Trace rows are deterministic: the pairs
// added in a round are sorted by interned constant id (the sorted
// active domain order), then by prefix length, before names are
// rendered.
func SolveNaive(db *instance.Instance, q words.Word) (*Result, []Trace) {
	n := len(q)
	iv := db.Interned()
	adom := iv.Consts()
	inN := make(map[Pair]bool)
	nfa := automata.New(q)
	for _, c := range adom {
		inN[Pair{c, n}] = true
	}
	blocks := db.Blocks()
	var traces []Trace
	for round := 1; ; round++ {
		var added []Pair
		for u := 0; u < n; u++ {
			rel := q[u]
			for _, id := range blocks {
				if id.Rel != rel || inN[Pair{id.Key, u}] {
					continue
				}
				all := true
				for _, y := range db.Block(id.Rel, id.Key) {
					if !inN[Pair{y, u + 1}] {
						all = false
						break
					}
				}
				if !all {
					continue
				}
				added = append(added, Pair{id.Key, u})
				for _, w := range nfa.BackwardSources(u) {
					if !inN[Pair{id.Key, w}] {
						added = append(added, Pair{id.Key, w})
					}
				}
			}
		}
		// Deduplicate and commit the round.
		var committed []Pair
		for _, p := range added {
			if !inN[p] {
				inN[p] = true
				committed = append(committed, p)
			}
		}
		if len(committed) == 0 {
			break
		}
		sort.Slice(committed, func(i, j int) bool {
			ci, _ := iv.ConstID(committed[i].C)
			cj, _ := iv.ConstID(committed[j].C)
			if ci != cj {
				return ci < cj
			}
			return committed[i].U < committed[j].U
		})
		traces = append(traces, Trace{Round: round, Added: committed})
	}

	res := resultFromPairs(q, iv, inN)
	if n == 0 {
		res.Certain = true
	}
	return res, traces
}

// resultFromPairs packs an explicit pair set into the interned Result
// representation.
func resultFromPairs(q words.Word, iv *instance.Interned, inN map[Pair]bool) *Result {
	n := len(q)
	stride := n + 1
	res := &Result{Query: q.Clone(), iv: iv, nq: n, bits: bitset.New(iv.NumConsts() * stride)}
	for p := range inN {
		if id, ok := iv.ConstID(p.C); ok && p.U >= 0 && p.U <= n {
			res.bits.Set(int(id)*stride + p.U)
		}
	}
	res.startBits = bitset.New(iv.NumConsts())
	for c := 0; c < iv.NumConsts(); c++ {
		if res.bits.Test(c*stride) || n == 0 {
			res.Certain = true
			res.startBits.Set(c)
			res.Starts = append(res.Starts, iv.Const(int32(c)))
		}
	}
	return res
}

// FormatTrace renders the rounds in the style of the Figure 6 table.
func FormatTrace(q words.Word, traces []Trace) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Iteration | Tuples added to N (q = %v)\n", q)
	for _, tr := range traces {
		parts := make([]string, len(tr.Added))
		for i, p := range tr.Added {
			parts[i] = fmt.Sprintf("<%s, %v>", p.C, q.Prefix(p.U))
		}
		fmt.Fprintf(&b, "%9d | %s\n", tr.Round, strings.Join(parts, ", "))
	}
	return b.String()
}

// MinimalRepair constructs the repair r* of the proof of Lemma 10 from
// the relation N, on the solved snapshot's interned blocks: for every
// block R(a,*), among all prefixes u0·R of q ending with R, let u0 be
// the longest with ⟨a, u0⟩ ∉ N; if such a prefix exists, pick a fact
// R(a,b) with ⟨b, u0·R⟩ ∉ N, else pick arbitrarily (the smallest value,
// for determinism). For a path query q satisfying C3, if the instance
// is a no-instance then the returned repair falsifies q; it is also the
// ⪯q-minimal repair of Lemma 9, minimizing start(q, ·) over all repairs
// (Lemma 6).
func (r *Result) MinimalRepair() *instance.Instance {
	iv, stride := r.iv, r.nq+1
	out := instance.New()
	for rid := 0; rid < iv.NumRels(); rid++ {
		rel := iv.Rel(int32(rid))
		for _, bl := range iv.RelBlocks(int32(rid)) {
			chosen := bl.Vals[0]
			for u := r.nq - 1; u >= 0; u-- {
				if r.Query[u] != rel || r.bits.Test(int(bl.Key)*stride+u) {
					continue
				}
				// Iterative Rule guarantees some successor with
				// ⟨y, u+1⟩ ∉ N.
				found := false
				for _, y := range bl.Vals {
					if !r.bits.Test(int(y)*stride + u + 1) {
						chosen, found = y, true
						break
					}
				}
				if !found {
					// Cannot happen if r is the true fixpoint.
					panic(fmt.Sprintf("fixpoint: block %s(%s,*): ⟨%s,%d⟩ ∉ N but all successors in N", rel, iv.Const(bl.Key), iv.Const(bl.Key), u))
				}
				break
			}
			out.AddFact(rel, iv.Const(bl.Key), iv.Const(chosen))
		}
	}
	return out
}

// StatesSet computes ST_q(f, r) of Definition 7 for a fact f of a
// consistent instance r: the set of states u·R (as prefix lengths) such
// that S-NFA(q, u) accepts some path of r that starts with the fact f.
func StatesSet(r *instance.Instance, q words.Word, f instance.Fact) map[int]bool {
	out := make(map[int]bool)
	nfa := automata.New(q)
	for u := 0; u < len(q); u++ {
		if q[u] != f.Rel {
			continue
		}
		// S-NFA(q, u) must accept a path starting with f: first step
		// consumes f (state u -> u+1), then any accepted continuation
		// from f.Val.
		if acceptsFromVia(r, nfa, u+1, f.Val) {
			out[u+1] = true
		}
	}
	return out
}

// acceptsFromVia reports whether some path of r starting at constant c
// is accepted by the automaton started at state "state" (including via
// ε-moves and further steps).
func acceptsFromVia(r *instance.Instance, nfa *automata.NFA, state int, c string) bool {
	n := nfa.NumStates()
	// BFS over (state-set, constant) configurations; r is consistent so
	// each constant has at most one successor per relation.
	type cfg struct {
		key string
		c   string
	}
	start := make([]bool, n)
	start[state] = true
	closure(nfa, start)
	seen := map[cfg]bool{}
	queue := []struct {
		set []bool
		c   string
	}{{start, c}}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if cur.set[n-1] {
			return true
		}
		k := cfg{key: setKey(cur.set), c: cur.c}
		if seen[k] {
			continue
		}
		seen[k] = true
		// Group moves by relation.
		for _, rel := range r.Relations() {
			succ := r.Block(rel, cur.c)
			if len(succ) == 0 {
				continue
			}
			next := make([]bool, n)
			any := false
			for i := 0; i < n-1; i++ {
				if cur.set[i] && nfa.ForwardLabel(i) == rel {
					next[i+1] = true
					any = true
				}
			}
			if !any {
				continue
			}
			closure(nfa, next)
			queue = append(queue, struct {
				set []bool
				c   string
			}{next, succ[0]})
		}
	}
	return false
}

func closure(nfa *automata.NFA, set []bool) {
	for j := len(set) - 1; j >= 1; j-- {
		if set[j] {
			for _, i := range nfa.BackwardTargets(j) {
				set[i] = true
			}
		}
	}
}

func setKey(set []bool) string {
	b := make([]byte, len(set))
	for i, v := range set {
		if v {
			b[i] = '1'
		} else {
			b[i] = '0'
		}
	}
	return string(b)
}
