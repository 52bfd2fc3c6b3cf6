package plan

import (
	"context"
	"runtime"
	"slices"
	"sync/atomic"

	"cqa/internal/bitset"
	"cqa/internal/conp"
	"cqa/internal/fixpoint"
	"cqa/internal/fo"
	"cqa/internal/instance"
	"cqa/internal/memo"
	"cqa/internal/nl"
	"cqa/internal/words"
)

// tier is the seam every solver tier plugs into, over its
// instance-bound artifact A: build A cold for a snapshot, repair it
// from a resident ancestor's A along the snapshot lineage (touched are
// the blocks that differ; ok false declines and builds cold), decide
// CERTAINTY(q) from it, and price it for the memo's byte budget. A
// tier holds only query-side state, so the plan's memo is the one place
// any instance-bound state lives.
type tier[A any] interface {
	build(iv *instance.Interned) A
	repair(parent A, iv *instance.Interned, touched []instance.BlockRef) (A, bool)
	decide(ctx context.Context, iv *instance.Interned, a A, opts Options) (Result, error)
	cost(a A) int64
	parallel() ParallelStats
}

// parallelFacts is the snapshot size, in facts, from which the NL and
// fixpoint tiers shard a decision across every core. Below it the
// per-round fork/merge overhead of the sharded passes exceeds the
// whole solve.
const parallelFacts = 1 << 16

// solveWorkers is the worker count of the NL and fixpoint tiers'
// artifact builds and solves on iv: runtime.GOMAXPROCS(0) from
// parallelFacts facts on, 1 below. It reads the fact count first
// because GOMAXPROCS takes the scheduler lock, which small decisions
// must never pay. It is a variable only so that this package's tests
// can force a worker count.
var solveWorkers = func(iv *instance.Interned) int {
	if iv.NumFacts() < parallelFacts {
		return 1
	}
	return runtime.GOMAXPROCS(0)
}

// Per-tier memo bounds: at most maxSnapshots resident snapshots, and a
// byte budget — a CNF is O(|db|·|q|) literals and a fixpoint binding
// O(|q|·|adom|) int32s, so serving a few very large instances sheds old
// snapshots by bytes long before the entry bound bites.
const (
	maxSnapshots = 16
	maxTierBytes = 32 << 20
	maxSATBytes  = 64 << 20
)

// cell is one memo entry: a tier artifact and, once decide has returned
// normally on it, the finished decision.
type cell[A any] struct {
	art A
	dec atomic.Pointer[Result]
}

// memoTier is one built tier: its seam and its per-snapshot memo.
type memoTier[A any] struct {
	t      tier[A]
	budget int64 // compile-time default byte budget
	memo   *memo.LRU[*instance.Interned, *cell[A]]
}

// runner is the type-erased view of a memoTier that the plan dispatches
// to and aggregates over.
type runner interface {
	run(ctx context.Context, iv *instance.Interned, opts Options) (Result, error)
	stats() memo.Stats
	parallel() ParallelStats
	setScale(scale float64)
}

func newTier[A any](t tier[A], budget int64) runner {
	return &memoTier[A]{t: t, budget: budget, memo: memo.NewLRUWithBudget[*instance.Interned, *cell[A]](
		maxSnapshots, budget, func(c *cell[A]) int64 { return t.cost(c.art) })}
}

// run decides CERTAINTY(q) on iv. The memo entry for iv is a hit, a
// lineage repair, or a cold build; a decision already stored in it is
// returned as is (a memo hit with no solver work), except for callers
// that want a counterexample, which a stored decision does not keep.
// Otherwise decide runs on the artifact, and its decision is stored
// only if it returns normally: a panicking or cancelled decide stores
// nothing, so the next lookup recomputes.
func (m *memoTier[A]) run(ctx context.Context, iv *instance.Interned, opts Options) (Result, error) {
	c := memo.GetLineage(m.memo, iv,
		func(parent *cell[A], touched []instance.BlockRef) (*cell[A], bool) {
			if a, ok := m.t.repair(parent.art, iv, touched); ok {
				return &cell[A]{art: a}, true
			}
			return nil, false
		},
		func() *cell[A] { return &cell[A]{art: m.t.build(iv)} })
	if d := c.dec.Load(); d != nil && !opts.WantCounterexample {
		return *d, nil
	}
	res, err := m.t.decide(ctx, iv, c.art, opts)
	if err != nil {
		return Result{}, err
	}
	d := res
	d.Counterexample = nil
	c.dec.Store(&d)
	return res, nil
}

func (m *memoTier[A]) stats() memo.Stats       { return m.memo.Stats() }
func (m *memoTier[A]) parallel() ParallelStats { return m.t.parallel() }

func (m *memoTier[A]) setScale(scale float64) {
	m.memo.SetBudget(memo.ScaledBudget(m.budget, scale))
}

// foTier is the Lemma 13 rewriting, evaluated as the Lemma 12 dynamic
// program; its artifact is the interned start set {c | db ⊨ ψ(c)}.
type foTier struct{ q words.Word }

func (t foTier) build(iv *instance.Interned) bitset.Bits {
	return fo.CertainStartsBits(iv, t.q)
}

// repair keeps the parent's start set when no touched block belongs to
// a relation of q; otherwise the linear DP re-runs cold.
func (t foTier) repair(parent bitset.Bits, iv *instance.Interned, touched []instance.BlockRef) (bitset.Bits, bool) {
	for _, r := range touched {
		if slices.Contains(t.q, iv.Rel(r.Rel)) {
			return nil, false
		}
	}
	return parent, true
}

func (t foTier) decide(_ context.Context, _ *instance.Interned, starts bitset.Bits, _ Options) (Result, error) {
	return Result{Method: MethodFO, Certain: len(t.q) == 0 || starts.Count() > 0}, nil
}

func (foTier) cost(starts bitset.Bits) int64 { return 8 * int64(len(starts)) }
func (foTier) parallel() ParallelStats       { return ParallelStats{} }

// nlTier is the Section 6.3 loop procedure over its certified
// decomposition; note is the decomposition rendered once at compile
// time (rebuilding the string per decision would dominate the tier).
type nlTier struct {
	ev   *nl.Evaluator
	note string
}

func (t nlTier) build(iv *instance.Interned) *nl.Binding {
	return t.ev.Bind(iv, solveWorkers(iv))
}

func (t nlTier) repair(parent *nl.Binding, iv *instance.Interned, touched []instance.BlockRef) (*nl.Binding, bool) {
	return t.ev.Rebind(parent, iv, touched, solveWorkers(iv)), true
}

func (t nlTier) decide(_ context.Context, iv *instance.Interned, b *nl.Binding, _ Options) (Result, error) {
	return Result{Method: MethodNL, Certain: t.ev.Certain(iv, b), Note: t.note}, nil
}

func (nlTier) cost(b *nl.Binding) int64  { return b.Bytes() }
func (t nlTier) parallel() ParallelStats { return t.ev.ParallelStats() }

// fpTier is the Figure 5 fixpoint, shared by the PTIME tier, the NL
// fallback, and forced ptime-fixpoint runs.
type fpTier struct{ cp *fixpoint.Compiled }

func (t fpTier) build(iv *instance.Interned) *fixpoint.Binding {
	return t.cp.Bind(iv, solveWorkers(iv))
}

func (t fpTier) repair(parent *fixpoint.Binding, iv *instance.Interned, touched []instance.BlockRef) (*fixpoint.Binding, bool) {
	return t.cp.Rebind(parent, iv, touched), true
}

func (t fpTier) decide(ctx context.Context, iv *instance.Interned, b *fixpoint.Binding, opts Options) (Result, error) {
	fp, err := t.cp.SolveBound(ctx, iv, b, solveWorkers(iv))
	if err != nil {
		return Result{}, err
	}
	res := Result{Method: MethodFixpoint, Certain: fp.Certain}
	if fp.Certain && len(fp.Starts) > 0 {
		res.Witness = fp.Starts[0]
	} else if !fp.Certain && opts.WantCounterexample {
		// The Lemma 10 minimal repair is built on request only: it
		// materializes a string-keyed instance.
		res.Counterexample = fp.MinimalRepair()
	}
	return res, nil
}

func (fpTier) cost(b *fixpoint.Binding) int64 { return b.Bytes() }
func (t fpTier) parallel() ParallelStats      { return t.cp.ParallelStats() }

// satTier is the coNP tier: the CNF encoding with its incremental
// solver, patched in place along the lineage where sound.
type satTier struct{ c *conp.Compiled }

func (t satTier) build(iv *instance.Interned) *conp.Encoding { return t.c.Encode(iv) }

func (t satTier) repair(parent *conp.Encoding, iv *instance.Interned, touched []instance.BlockRef) (*conp.Encoding, bool) {
	e := t.c.Patch(parent, iv, touched)
	return e, e != nil
}

func (t satTier) decide(ctx context.Context, iv *instance.Interned, e *conp.Encoding, opts Options) (Result, error) {
	out, err := t.c.Solve(ctx, iv, e, opts.WantCounterexample)
	if err != nil {
		return Result{}, err
	}
	return Result{Method: MethodSAT, Certain: out.Certain, Counterexample: out.Counterexample()}, nil
}

func (satTier) cost(e *conp.Encoding) int64 { return e.Bytes() }
func (satTier) parallel() ParallelStats     { return ParallelStats{} }
