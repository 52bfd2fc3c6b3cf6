// Package nl implements the NL solver tier of Section 6.3 of the paper:
// for path queries q satisfying condition C2, CERTAINTY(q) is decided by
// the predicates P and O of Lemma 14 (Claims 2–4), computed here with
// reachability over loop-step graphs, with first-order terminal tests
// (Lemma 17 via Lemma 12) at the leaves. Claim 5 restates the procedure
// as a linear Datalog program with stratified negation; that
// reproduction was retired, since the loop procedure itself is what
// decides NL-class queries.
//
// A C2 query decomposes (Lemma 3: C2 = B2a ∪ B2b) as
//
//	q = pre · loop^* · exit        (as a language claim, Lemma 16):
//
// L(NFAmin(q)) = pre (loop)* exitLang, where pre is the pre-loop part of
// q (a suffix of loop powers), loop = uv (B2b) or u (B2a), and exitLang
// is the certain language of the exit word (for B2b a single
// self-join-free word w·t; for B2a itself of the form mid (v)^a (v)* tail).
// Every decomposition is CERTIFIED at solve time by DFA equivalence
// against NFAmin(q); uncertifiable corner cases report an error and the
// caller falls back to the (always-correct for C3 ⊇ C2) fixpoint tier.
package nl

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"

	"cqa/internal/automata"
	"cqa/internal/bitset"
	"cqa/internal/classify"
	"cqa/internal/fixpoint"
	"cqa/internal/fo"
	"cqa/internal/instance"
	"cqa/internal/regex"
	"cqa/internal/words"
)

// ErrNotC2 is returned when q does not satisfy condition C2.
var ErrNotC2 = errors.New("nl: query does not satisfy C2")

// ErrNoCertifiedDecomposition is returned when no decomposition passes
// the DFA-equivalence certificate; callers should fall back to the
// fixpoint tier.
var ErrNoCertifiedDecomposition = errors.New("nl: no certified loop decomposition found")

// Decomposition is a certified loop decomposition of a C2 query.
type Decomposition struct {
	Form string // "sjf", "B2b" or "B2a"
	// Pre is the part of q before the loop region boundary.
	Pre words.Word
	// Loop is the pumpable word: uv for B2b, u for B2a. Empty for sjf.
	Loop words.Word
	// Exit is the part of q after the loop region. For B2b it is
	// self-join-free; for B2a it may itself contain the v-loop and is
	// handled by the fixpoint sub-solver.
	Exit words.Word
	// ExitRegex is the certain language of Exit (as a regex).
	ExitRegex regex.Expr
	// Language is the full certified regex pre (loop)* exitLang.
	Language regex.Expr
}

// String renders the decomposition.
func (d *Decomposition) String() string {
	return fmt.Sprintf("%s: pre=%v loop=%v exit=%v language=%s", d.Form, d.Pre, d.Loop, d.Exit, d.Language)
}

// Decompose finds and certifies a loop decomposition for a C2 query.
func Decompose(q words.Word) (*Decomposition, error) {
	if ok, _ := classify.C2(q); !ok {
		return nil, ErrNotC2
	}
	if q.IsSelfJoinFree() {
		d := &Decomposition{
			Form:      "sjf",
			Pre:       q.Clone(),
			Loop:      words.Word{},
			Exit:      words.Word{},
			ExitRegex: regex.Eps{},
			Language:  regex.Literal(q),
		}
		return d, nil
	}
	var candidates []*Decomposition
	if w := classify.FindB2b(q); w != nil {
		candidates = append(candidates, decomposeB2b(q, w)...)
	}
	if w := classify.FindB2a(q); w != nil {
		candidates = append(candidates, decomposeB2a(q, w)...)
	}
	// Degenerate case: the minimal language collapses to {q} when every
	// pumped word has q as a proper prefix (e.g. q = RR, q = YXYXY).
	// The avoidance predicate is then handled by the whole-word
	// sub-solver (see Binding.sub), which is still an NL computation.
	candidates = append(candidates, &Decomposition{
		Form: "exact", Pre: q.Clone(), Loop: words.Word{}, Exit: words.Word{},
		ExitRegex: regex.Eps{}, Language: regex.Literal(q),
	})
	min := automata.New(q).MinPrefixDFA()
	for _, d := range candidates {
		if regex.ToDFA(d.Language).Equal(min) {
			return d, nil
		}
	}
	return nil, ErrNoCertifiedDecomposition
}

// decomposeB2b slices q inside the pumped word (uv)^k·w·v. The exit is
// self-join-free (a factor of w·v), so its certain language is itself.
func decomposeB2b(q words.Word, w *classify.BWitness) []*Decomposition {
	loop := words.Concat(w.U, w.V)
	if loop.IsEmpty() {
		return nil
	}
	p := w.Pumped
	off := w.Offset
	n := len(q)
	loopRegion := w.K * len(loop)
	b := clamp(loopRegion, off, off+n)
	pre := p.Factor(off, b)
	exit := p.Factor(b, off+n)
	return []*Decomposition{{
		Form:      "B2b",
		Pre:       pre.Clone(),
		Loop:      loop,
		Exit:      exit.Clone(),
		ExitRegex: regex.Literal(exit),
		Language:  regex.Seq(regex.Literal(pre), regex.Star{Body: regex.Literal(loop)}, regex.Literal(exit)),
	}}
}

// decomposeB2a slices q inside the pumped word (u)^j·w·(v)^k. The exit
// part may contain the v-loop; candidate certain languages for the exit
// are mid (v)^a (v)* tail and the degenerate Literal(exit), whichever is
// certified against NFAmin(exit).
func decomposeB2a(q words.Word, w *classify.BWitness) []*Decomposition {
	p := w.Pumped
	off := w.Offset
	n := len(q)
	uRegion := w.J * len(w.U)
	b1 := clamp(uRegion, off, off+n)
	pre := p.Factor(off, b1)
	exit := p.Factor(b1, off+n)

	// Candidate certain languages for the exit word.
	var exitCandidates []regex.Expr
	if len(exit) == 0 {
		exitCandidates = append(exitCandidates, regex.Eps{})
	} else {
		wEnd := clamp(uRegion+len(w.W), b1, off+n)
		mid := p.Factor(b1, wEnd)
		vpart := p.Factor(wEnd, off+n)
		if len(w.V) > 0 {
			a := len(vpart) / len(w.V)
			tail := vpart.Suffix(a * len(w.V))
			exitCandidates = append(exitCandidates,
				regex.Seq(regex.Literal(mid), regex.Power(regex.Literal(w.V), a),
					regex.Star{Body: regex.Literal(w.V)}, regex.Literal(tail)))
		}
		exitCandidates = append(exitCandidates, regex.Literal(exit))
	}
	// The exit language used must be exactly L(NFAmin(exit)): the
	// avoidance sub-solver computes avoidance of that language
	// (Lemma 15 makes avoidance of L↬(exit) and of the minimal
	// language coincide).
	var exitRe regex.Expr
	if len(exit) == 0 {
		exitRe = regex.Eps{}
	} else {
		minExit := automata.New(exit).MinPrefixDFA()
		for _, cand := range exitCandidates {
			if regex.ToDFA(cand).Equal(minExit) {
				exitRe = cand
				break
			}
		}
		if exitRe == nil {
			return nil
		}
	}

	loop := w.U.Clone()
	if loop.IsEmpty() {
		// No u-loop: the whole query lives in w·(v)^k.
		return []*Decomposition{{
			Form: "B2a", Pre: words.Word{}, Loop: words.Word{},
			Exit: exit.Clone(), ExitRegex: exitRe, Language: exitRe,
		}}
	}
	return []*Decomposition{{
		Form:      "B2a",
		Pre:       pre.Clone(),
		Loop:      loop,
		Exit:      exit.Clone(),
		ExitRegex: exitRe,
		Language:  regex.Seq(regex.Literal(pre), regex.Star{Body: regex.Literal(loop)}, exitRe),
	}}
}

func clamp(x, lo, hi int) int {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// Evaluator is the compiled form of the NL tier for one query: the
// certified loop decomposition together with the precompiled fixpoint
// machinery for its sub-words (the whole word when the loop is empty,
// the exit word otherwise). Building an Evaluator pays the Decompose
// cost — candidate enumeration plus DFA-equivalence certification —
// exactly once; the instance-bound artifacts of the Lemma 14 procedure
// (exit avoidance, terminal bitsets, the loop-step graph and the
// predicates P and O derived from them) form a Binding per interned
// snapshot, built by Bind and repaired along the snapshot lineage by
// Rebind. The plan layer memoizes bindings per snapshot, so repeated
// decisions on an unchanged instance do near-zero work. An Evaluator
// holds no per-instance state and is safe for concurrent use.
type Evaluator struct {
	q words.Word
	d *Decomposition
	// whole is the compiled fixpoint machinery for pre·exit, used when
	// the decomposition has no loop.
	whole *fixpoint.Compiled
	// exit is the compiled fixpoint machinery for the exit word, used
	// by the avoidance predicate when the loop is nonempty.
	exit *fixpoint.Compiled
	// relsExit/relsLoop/relsPre are the relation-name dependency sets of
	// the three artifact stages, driving the slice-granular repair: a
	// touched block of a relation outside a stage's set cannot reach
	// that stage's artifacts, so a lineage repair reuses them.
	relsExit map[string]bool
	relsLoop map[string]bool
	relsPre  map[string]bool

	// parSolves/parShards count binding builds that ran the partitioned
	// passes (see Bind); surfaced via ParallelStats together with the
	// sub-solvers' counters.
	parSolves atomic.Uint64
	parShards atomic.Uint64
}

// relSet collects the distinct relation names of a word.
func relSet(w words.Word) map[string]bool {
	out := make(map[string]bool, len(w))
	for _, r := range w {
		out[r] = true
	}
	return out
}

// NewEvaluator decomposes q (ErrNotC2 / ErrNoCertifiedDecomposition on
// failure) and precompiles the sub-solvers.
func NewEvaluator(q words.Word) (*Evaluator, error) {
	d, err := Decompose(q)
	if err != nil {
		return nil, err
	}
	return newEvaluator(q, d), nil
}

func newEvaluator(q words.Word, d *Decomposition) *Evaluator {
	e := &Evaluator{q: q.Clone(), d: d, relsExit: relSet(d.Exit), relsLoop: relSet(d.Loop), relsPre: relSet(d.Pre)}
	if d.Loop.IsEmpty() {
		e.whole = fixpoint.Compile(words.Concat(d.Pre, d.Exit))
	} else if !d.Exit.IsEmpty() {
		e.exit = fixpoint.Compile(d.Exit)
	}
	return e
}

// Decomposition returns the certified decomposition the evaluator runs.
func (e *Evaluator) Decomposition() *Decomposition { return e.d }

// IsCertain decides CERTAINTY(q) on db with the precompiled machinery,
// evaluating "∃c ∈ adom(db): ¬O(c)". It binds db's snapshot from
// scratch, single-core, on every call.
func (e *Evaluator) IsCertain(db *instance.Instance) bool {
	iv := db.Interned()
	return e.Certain(iv, e.Bind(iv, 1))
}

// Certain decides CERTAINTY(q) on iv from its binding b: certain iff
// some adom constant has its O bit clear.
func (e *Evaluator) Certain(iv *instance.Interned, b *Binding) bool {
	return len(e.q) == 0 || b.o.Count() < iv.NumConsts()
}

// ParallelStats aggregates the partitioned-path counters of the
// evaluator's own binding builds and its fixpoint sub-solvers.
func (e *Evaluator) ParallelStats() fixpoint.ParallelStats {
	s := fixpoint.ParallelStats{Solves: e.parSolves.Load(), Shards: e.parShards.Load()}
	if e.whole != nil {
		s = s.Add(e.whole.ParallelStats())
	}
	if e.exit != nil {
		s = s.Add(e.exit.ParallelStats())
	}
	return s
}

// Binding holds the instance-bound artifacts of the Lemma 14 procedure
// for one (evaluator, interned snapshot) pair, staged so a lineage
// repair can reuse every stage a mutation does not reach. Everything
// here is a pure function of the immutable snapshot, so the binding is
// itself immutable and safe to share across any number of concurrent
// decisions — a repaired binding therefore never patches the parent's
// slices in place; stages it reuses are aliased. A loop-free
// decomposition sets only sub and o.
type Binding struct {
	// sub is the fixpoint sub-solver's binding: the whole word's for a
	// loop-free decomposition, the exit word's otherwise (nil when the
	// exit is empty).
	sub *fixpoint.Binding
	// avoid: bit d set iff some repair has no exit-trace path from d
	// (complement of the exit word's fixpoint start bits). Depends on
	// the exit word's relations only.
	avoid bitset.Bits
	// loopTerminal is the Lemma 12 terminal DP for the loop word.
	// Depends on the loop word's relations only.
	loopTerminal bitset.Bits
	// adjStart/adjList is the loop-step graph restricted to
	// exit-avoiding vertices (CSR). Depends on avoid and the loop
	// relations.
	adjStart []int32
	adjList  []int32
	// p is the predicate P of Lemma 14: reaches (via the restricted
	// graph) a terminal-or-cycle target. Depends on the graph stage.
	p bitset.Bits
	// o is the predicate O of Lemma 14 over interned constant ids.
	// Depends on p and the pre word's relations.
	o bitset.Bits
}

// Bytes prices a binding for a memo's byte budget. Stages shared with a
// parent binding are charged to both — a conservative over-count.
func (b *Binding) Bytes() int64 {
	n := 8*int64(len(b.avoid)+len(b.loopTerminal)+len(b.p)+len(b.o)) +
		4*int64(len(b.adjStart)+len(b.adjList))
	if b.sub != nil {
		n += b.sub.Bytes()
	}
	return n
}

// Bind runs the instance-bound half of the Lemma 14 procedure for one
// snapshot from scratch: the avoidance and terminal predicates, the
// restricted loop-step graph, its cycle/terminal targets, reverse
// reachability (P), and finally O via consistent pre-paths. Everything
// is derived from iv alone, so the binding can never mix two snapshots.
// With workers > 1, the exit-word fixpoint, the Lemma 12 terminal DPs,
// the restricted loop-step graph, and the reverse-reachability pass
// shard across workers goroutines (Tarjan's SCC pass stays
// sequential); the binding is identical to the single-core path's. The
// stages are the repair granularity of Rebind.
func (e *Evaluator) Bind(iv *instance.Interned, workers int) *Binding {
	if e.d.Loop.IsEmpty() {
		// Pure word (sjf or loop-free exit): O(c) = c terminal for the
		// whole word, equivalently ¬(every repair has an accepted path
		// from c), computed by the fixpoint sub-solver on the word.
		b := &Binding{sub: e.whole.Bind(iv, workers)}
		b.o = nonStarts(e.whole, iv, b.sub, workers)
		return b
	}
	if workers > 1 {
		e.parSolves.Add(1)
		e.parShards.Add(uint64(workers))
	}
	b := &Binding{loopTerminal: fo.TerminalBitsetPar(iv, e.d.Loop, workers)}
	if e.exit != nil {
		b.sub = e.exit.Bind(iv, workers)
	}
	b.avoid = nonStarts(e.exit, iv, b.sub, workers)
	b.adjStart, b.adjList = e.computeGraphW(iv, b.avoid, workers)
	b.p = e.computeP(b, workers)
	b.o = e.computeOW(iv, b.p, workers)
	return b
}

// Rebind derives iv's binding from an ancestor's along touched, the
// blocks that differ between the ancestor's snapshot and iv. Each stage
// is recomputed only when a touched block's relation is in its
// dependency set or an upstream stage it reads actually changed —
// with an equality cut: a recomputed stage that comes out identical to
// the parent's stops the downstream cascade. Untouched stages alias the
// parent's slices.
func (e *Evaluator) Rebind(parent *Binding, iv *instance.Interned, touched []instance.BlockRef, workers int) *Binding {
	touchExit, touchLoop, touchPre := false, false, false
	for _, t := range touched {
		rel := iv.Rel(t.Rel)
		touchExit = touchExit || e.relsExit[rel]
		touchLoop = touchLoop || e.relsLoop[rel]
		touchPre = touchPre || e.relsPre[rel]
	}
	if !touchExit && !touchLoop && !touchPre {
		// The mutation reaches no slice of the artifact: the whole
		// binding carries over.
		return parent
	}
	if e.d.Loop.IsEmpty() {
		b := &Binding{sub: e.whole.Rebind(parent.sub, iv, touched)}
		b.o = nonStarts(e.whole, iv, b.sub, workers)
		return b
	}
	b := &Binding{}

	avoidChanged := false
	if touchExit {
		b.sub = e.exit.Rebind(parent.sub, iv, touched)
		b.avoid = nonStarts(e.exit, iv, b.sub, workers)
		avoidChanged = !b.avoid.Equal(parent.avoid)
	} else {
		b.sub, b.avoid = parent.sub, parent.avoid
	}

	if touchLoop {
		b.loopTerminal = fo.TerminalBitsetPar(iv, e.d.Loop, workers)
	} else {
		b.loopTerminal = parent.loopTerminal
	}

	pChanged := false
	if avoidChanged || touchLoop {
		// The restricted graph reads the loop relations' blocks
		// directly (WalkEnds), so a touched loop block forces a graph
		// rebuild even when the terminal DP came out unchanged.
		b.adjStart, b.adjList = e.computeGraphW(iv, b.avoid, workers)
		b.p = e.computeP(b, workers)
		pChanged = !b.p.Equal(parent.p)
	} else {
		b.adjStart, b.adjList, b.p = parent.adjStart, parent.adjList, parent.p
	}

	if touchPre || pChanged {
		b.o = e.computeOW(iv, b.p, workers)
	} else {
		b.o = parent.o
	}
	return b
}

// nonStarts is the complement, over iv's constants, of cp's fixpoint
// start set on binding b: the constants from which some repair has no
// path whose trace is in the certain language of cp's word. For the
// exit word this is the avoidance predicate (by Corollary 1, via the
// ⪯q-minimal repair of Lemma 6, which minimizes start sets for all
// constants simultaneously). A nil cp stands for an empty exit, which
// cannot be avoided.
func nonStarts(cp *fixpoint.Compiled, iv *instance.Interned, b *fixpoint.Binding, workers int) bitset.Bits {
	nc := iv.NumConsts()
	out := bitset.New(nc)
	if cp != nil {
		// The background context cannot fail the entry check, so the
		// error is structurally nil.
		res, _ := cp.SolveBound(context.Background(), iv, b, workers)
		out.NotFrom(res.StartBits(), nc)
	}
	return out
}

// computeGraph builds the loop-step graph restricted to exit-avoiding
// vertices (condition (ii) of the definition of P), as a CSR over
// constant ids.
func (e *Evaluator) computeGraph(iv *instance.Interned, avoid bitset.Bits) (adjStart, adjList []int32) {
	nc := iv.NumConsts()
	loopRels := iv.InternWord(e.d.Loop)
	adjStart = make([]int32, nc+1)
	var buf instance.WalkBuf
	for c := 0; c < nc; c++ {
		adjStart[c] = int32(len(adjList))
		if !avoid.Test(c) {
			continue
		}
		for _, end := range iv.WalkEnds(int32(c), loopRels, &buf) {
			if avoid.Test(int(end)) {
				adjList = append(adjList, end)
			}
		}
	}
	adjStart[nc] = int32(len(adjList))
	return adjStart, adjList
}

// computeP derives the predicate P from the graph stage: targets are
// the terminal-for-loop vertices that avoid the exit (condition (iii);
// the loop word is self-join-free, so the Lemma 12 DP is exact) plus
// the vertices on cycles of the restricted graph (dℓ ∈ {d0..dℓ-1});
// P is reverse reachability from the targets.
func (e *Evaluator) computeP(b *Binding, workers int) bitset.Bits {
	targets := bitset.New(len(b.avoid) << 6)
	for i := range targets {
		targets[i] = b.avoid[i] & b.loopTerminal[i]
	}
	for _, c := range cycleVertices(b.adjStart, b.adjList) {
		targets.Set(int(c))
	}
	return reverseReachW(b.adjStart, b.adjList, targets, workers)
}

// computeO derives the predicate O: O(c) = c terminal for pre, or some
// consistent pre-path from c ends in a vertex satisfying P.
func (e *Evaluator) computeO(iv *instance.Interned, p bitset.Bits) bitset.Bits {
	nc := iv.NumConsts()
	preRels := iv.InternWord(e.d.Pre)
	o := fo.TerminalBitset(iv, e.d.Pre)
	for c := 0; c < nc; c++ {
		if o.Test(c) {
			continue
		}
		if consistentEndReaches(iv, preRels, int32(c), p) {
			o.Set(c)
		}
	}
	return o
}

// cycleVertices returns the vertices lying on a directed cycle of the
// CSR graph (self-loops included): members of nontrivial SCCs. The SCC
// computation is an iterative Tarjan with an explicit frame stack — the
// restricted loop-step graph can be a chain as deep as the active
// domain, which would overflow the stack recursively.
func cycleVertices(adjStart, adjList []int32) []int32 {
	n := len(adjStart) - 1
	const unvisited = int32(-1)
	index := make([]int32, n)
	for i := range index {
		index[i] = unvisited
	}
	low := make([]int32, n)
	onStack := make([]bool, n)
	stack := make([]int32, 0, 16)
	type frame struct {
		v  int32
		ei int32 // next out-edge cursor into adjList
	}
	var frames []frame
	var next int32
	var out []int32
	for root := 0; root < n; root++ {
		if index[root] != unvisited {
			continue
		}
		index[root] = next
		low[root] = next
		next++
		stack = append(stack, int32(root))
		onStack[root] = true
		frames = append(frames[:0], frame{int32(root), adjStart[root]})
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			v := f.v
			if f.ei < adjStart[v+1] {
				w := adjList[f.ei]
				f.ei++
				if index[w] == unvisited {
					index[w] = next
					low[w] = next
					next++
					stack = append(stack, w)
					onStack[w] = true
					frames = append(frames, frame{w, adjStart[w]})
				} else if onStack[w] && index[w] < low[v] {
					low[v] = index[w]
				}
				continue
			}
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				parent := frames[len(frames)-1].v
				if low[v] < low[parent] {
					low[parent] = low[v]
				}
			}
			if low[v] != index[v] {
				continue
			}
			// v is an SCC root: pop its component (v included).
			sccStart := len(stack) - 1
			for stack[sccStart] != v {
				sccStart--
			}
			scc := stack[sccStart:]
			for _, w := range scc {
				onStack[w] = false
			}
			if len(scc) > 1 {
				out = append(out, scc...)
			} else {
				// Singleton: on a cycle only via a self-loop.
				for ei := adjStart[v]; ei < adjStart[v+1]; ei++ {
					if adjList[ei] == v {
						out = append(out, v)
						break
					}
				}
			}
			stack = stack[:sccStart]
		}
	}
	return out
}

// reverseReach marks every vertex of the CSR graph that reaches a
// target vertex (targets included): BFS from the targets over the
// reversed edges.
func reverseReach(adjStart, adjList []int32, targets bitset.Bits) bitset.Bits {
	n := len(adjStart) - 1
	p := make(bitset.Bits, len(targets))
	copy(p, targets)
	// Reverse CSR by counting sort.
	revStart := make([]int32, n+1)
	for _, w := range adjList {
		revStart[w+1]++
	}
	for i := 0; i < n; i++ {
		revStart[i+1] += revStart[i]
	}
	revList := make([]int32, len(adjList))
	cursor := make([]int32, n)
	copy(cursor, revStart[:n])
	for v := 0; v < n; v++ {
		for ei := adjStart[v]; ei < adjStart[v+1]; ei++ {
			w := adjList[ei]
			revList[cursor[w]] = int32(v)
			cursor[w]++
		}
	}
	queue := make([]int32, 0, 16)
	targets.ForEach(func(c int) { queue = append(queue, int32(c)) })
	for head := 0; head < len(queue); head++ {
		c := queue[head]
		for ei := revStart[c]; ei < revStart[c+1]; ei++ {
			a := revList[ei]
			if !p.Test(int(a)) {
				p.Set(int(a))
				queue = append(queue, a)
			}
		}
	}
	return p
}

// consistentEndReaches reports whether some consistent path from c with
// trace rels ends in a constant whose P bit is set (Definition 15's
// db |= c -pre->-> d with P(d)). The block choices committed on the
// current path are kept in a small slice — a block revisited along a
// consistent path must reuse its earlier choice, and pre words are
// short, so a linear scan beats a map.
func consistentEndReaches(iv *instance.Interned, rels []int32, c int32, p bitset.Bits) bool {
	type choice struct {
		rid, key, val int32
	}
	chosen := make([]choice, 0, len(rels))
	var rec func(cur int32, i int) bool
	rec = func(cur int32, i int) bool {
		if i == len(rels) {
			return p.Test(int(cur))
		}
		rid := rels[i]
		if rid < 0 {
			return false
		}
		for _, ch := range chosen {
			if ch.rid == rid && ch.key == cur {
				return rec(ch.val, i+1)
			}
		}
		for _, v := range iv.Block(rid, cur) {
			chosen = append(chosen, choice{rid, cur, v})
			if rec(v, i+1) {
				return true
			}
			chosen = chosen[:len(chosen)-1]
		}
		return false
	}
	return rec(c, 0)
}
