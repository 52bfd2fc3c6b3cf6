// Package plan compiles path queries into immutable execution plans.
//
// The tetrachotomy of the paper makes classification polynomial in |q|,
// but classification — and the tier-specific machinery behind each
// solver — is still wasted work when the same query is evaluated over
// many instances. Compile runs the classification of Theorem 3 once and
// precomputes the artifacts of the dispatched tier:
//
//   - FO (condition C1): the consistent first-order rewriting of
//     Lemma 13;
//   - NL (condition C2): the certified loop decomposition of
//     Section 6.3 together with the compiled fixpoint sub-solvers for
//     its sub-words (nl.Evaluator);
//   - PTIME (condition C3): the Figure 5 fixpoint machinery — NFA(q)
//     and its backward ε-transition table (fixpoint.Compiled);
//   - coNP: the SAT clause skeleton of conp.Compiled (per-position
//     relations and the z-chain ladder shape), whose instance-bound CNF
//     is then memoized per interned snapshot.
//
// Every tier plugs into one seam (tier.go): build an instance-bound
// artifact for an interned snapshot, repair it from an ancestor's along
// the snapshot lineage, decide from it, and price it. The plan owns one
// lineage-aware memo per tier, keyed by snapshot, whose entry holds the
// artifact and the finished decision: CERTAINTY(q) is a pure function
// of the snapshot, so a repeat on an unchanged snapshot is one memo hit
// that returns the stored decision.
//
// Tiers other than the default (a forced method, or the fixpoint
// fallback when no certified NL decomposition exists) are compiled
// lazily. A Plan is safe for concurrent use by any number of
// goroutines, which is what makes the cqa.Engine plan cache and its
// concurrent batch evaluator sound; its memos are the only state that
// changes after Compile.
package plan

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"cqa/internal/bitset"
	"cqa/internal/classify"
	"cqa/internal/conp"
	"cqa/internal/fixpoint"
	"cqa/internal/fo"
	"cqa/internal/instance"
	"cqa/internal/memo"
	"cqa/internal/nl"
	"cqa/internal/repairs"
	"cqa/internal/words"
)

// Method identifies the solver tier used for a decision.
type Method string

// Solver tiers.
const (
	MethodFO         Method = "fo-rewriting"
	MethodNL         Method = "nl-loop"
	MethodFixpoint   Method = "ptime-fixpoint"
	MethodSAT        Method = "conp-sat"
	MethodExhaustive Method = "exhaustive"
)

// ErrUnsoundMethod is returned when a forced method does not cover the
// query's complexity class.
var ErrUnsoundMethod = errors.New("cqa: forced method is unsound for this query class")

// Result is the outcome of a certainty decision.
type Result struct {
	Certain bool
	Class   classify.Class
	Method  Method
	// Witness is a constant c such that every repair has a q-path
	// starting at c (set on yes-instances decided by the fixpoint
	// tier).
	Witness string
	// Counterexample is a repair falsifying q, built only when
	// Options.WantCounterexample is set: the fixpoint tier's Lemma 10
	// minimal repair and the SAT tier's model decode both materialize a
	// string-keyed instance, which would dominate warm no-instance
	// decisions on serving paths. The exhaustive tier still produces one
	// as a byproduct.
	Counterexample *instance.Instance
	// Note carries diagnostic detail, e.g. the NL decomposition or a
	// fallback reason.
	Note string
	// Err is set instead of a decision on requests that could not be
	// evaluated: an unsound forced method, or a batch item abandoned
	// because its context was cancelled.
	Err error
}

// Options tunes Execute.
type Options struct {
	// Force selects a specific tier instead of dispatching on the
	// class. Forcing a tier that is unsound for the query's class
	// (e.g. FO rewriting for a coNP query) returns an error.
	Force Method
	// WantCounterexample asks for a counterexample repair on
	// no-instances even when the chosen tier does not produce one as a
	// byproduct.
	WantCounterexample bool
}

// Plan is the compiled form of CERTAINTY(q) for one path query q:
// classification plus the tier slots. Plans are safe for concurrent
// use.
type Plan struct {
	word   words.Word
	report classify.Report
	method Method // default dispatch tier

	// foFormula is the Lemma 13 rewriting ∃x ψ(x), set iff the class
	// is FO.
	foFormula fo.Formula

	// tiers holds one slot per tier of tierMethods, built on first use.
	tiers [len(tierMethods)]slot
}

// tierMethods are the tiers behind the seam, in slot order.
var tierMethods = [...]Method{MethodFO, MethodNL, MethodFixpoint, MethodSAT}

// slot is one tier of a plan, built at most once: the tier's
// query-side compile and its per-snapshot memo. built flips after the
// build, so the stats loops read run without joining a build in
// flight.
type slot struct {
	once  sync.Once
	built atomic.Bool
	run   runner // nil when the tier cannot serve q (NL without a certified decomposition)
	// note and err are the NL slot's: the rendered decomposition, or
	// the fallback note and why no decomposition was certified.
	note string
	err  error
}

// tier returns the slot of tier m (one of tierMethods), building it on
// first use.
func (p *Plan) tier(m Method) *slot {
	s := &p.tiers[slices.Index(tierMethods[:], m)]
	s.once.Do(func() {
		switch m {
		case MethodFO:
			s.run = newTier[bitset.Bits](foTier{p.word}, maxTierBytes)
		case MethodNL:
			ev, err := nl.NewEvaluator(p.word)
			if err != nil {
				s.err, s.note = err, "nl fallback: "+err.Error()
				break
			}
			s.note = ev.Decomposition().String()
			s.run = newTier[*nl.Binding](nlTier{ev, s.note}, maxTierBytes)
		case MethodFixpoint:
			s.run = newTier[*fixpoint.Binding](fpTier{fixpoint.Compile(p.word)}, maxTierBytes)
		case MethodSAT:
			s.run = newTier[*conp.Encoding](satTier{conp.Compile(p.word)}, maxSATBytes)
		}
		s.built.Store(true)
	})
	return s
}

// Compile classifies q and precomputes the artifacts of its default
// solver tier.
func Compile(w words.Word) *Plan {
	p := &Plan{word: w.Clone(), report: classify.Explain(w)}
	switch p.report.Class {
	case classify.FO:
		p.method = MethodFO
		p.foFormula = fo.RewriteCertain(p.word)
	case classify.NL:
		p.method = MethodNL
	case classify.PTime:
		p.method = MethodFixpoint
	default:
		p.method = MethodSAT
	}
	// Method resolves the NL tier, and its fixpoint fallback when no
	// certified decomposition exists.
	p.tier(p.Method())
	return p
}

// Word returns the compiled query word.
func (p *Plan) Word() words.Word { return p.word.Clone() }

// Class returns the complexity class of CERTAINTY(q).
func (p *Plan) Class() classify.Class { return p.report.Class }

// Report returns the full classification report computed at compile
// time.
func (p *Plan) Report() classify.Report { return p.report }

// Method returns the solver tier the plan effectively dispatches to.
// For an NL-class query with no certified decomposition this is the
// fixpoint fallback, matching the Method field of the Results the plan
// produces.
func (p *Plan) Method() Method {
	if p.method == MethodNL && p.tier(MethodNL).err != nil {
		return MethodFixpoint
	}
	return p.method
}

// Rewriting returns the consistent first-order rewriting of Lemma 13 as
// a formula string; ok is false unless CERTAINTY(q) is in FO.
func (p *Plan) Rewriting() (string, bool) {
	if p.foFormula == nil {
		return "", false
	}
	return p.foFormula.String(), true
}

// Decomposition returns the certified NL loop decomposition as a
// diagnostic string; ok is false when the plan has none (wrong class,
// or fixpoint fallback).
func (p *Plan) Decomposition() (string, bool) {
	if s := p.tier(MethodNL); s.err == nil {
		return s.note, true
	}
	return "", false
}

// builtTiers calls f on every tier the plan has built so far. Tiers not
// yet compiled (lazily built fallbacks) are skipped; the atomic built
// flags make this safe concurrently with evaluation.
func (p *Plan) builtTiers(f func(runner)) {
	for i := range p.tiers {
		if s := &p.tiers[i]; s.built.Load() && s.run != nil {
			f(s.run)
		}
	}
}

// MemoStats aggregates the counters of the per-snapshot memos of every
// tier the plan has built so far. Misses count instance-bound artifact
// builds (cold or lineage repairs), Hits decisions on a resident
// snapshot entry — served from its stored decision, or decided afresh
// on its artifact when no decision is stored (a counterexample request,
// a retry after a cancellation or a panic) — the quantity the engine's
// snapshot-affine batch shards exist to maximize.
func (p *Plan) MemoStats() (s memo.Stats) {
	p.builtTiers(func(r runner) { s = s.Add(r.stats()) })
	return s
}

// ParallelStats is re-exported so engine-level aggregation needn't
// import the fixpoint package.
type ParallelStats = fixpoint.ParallelStats

// ParallelStats aggregates the partitioned-path counters of every tier
// the plan has built so far: fixpoint solves that engaged the sharded
// worklist, and NL artifact builds that ran the sharded Lemma 14
// stages. Zero everywhere means every decision took the single-core
// path: every snapshot was below parallelFacts, or GOMAXPROCS is 1.
func (p *Plan) ParallelStats() (s ParallelStats) {
	p.builtTiers(func(r runner) { s = s.Add(r.parallel()) })
	return s
}

// SetMemoScale sets every built tier's per-snapshot memo to scale ×
// its compile-time default byte budget — the engine fans the serving
// layer's soft-memory watermark out through this. Shrinking evicts LRU
// entries so decisions degrade to cold builds instead of growing the
// heap; scale >= 1 restores the defaults. Tiers compiled lazily after
// this call start at their defaults (the engine re-applies its current
// scale when it compiles a plan). The memos serialize the adjustment
// internally, so this is safe concurrently with evaluation.
func (p *Plan) SetMemoScale(scale float64) {
	p.builtTiers(func(r runner) { r.setScale(scale) })
}

// Certain decides CERTAINTY(q) on db with automatic tier dispatch.
func (p *Plan) Certain(db *instance.Instance) Result {
	r, err := p.Execute(db, Options{})
	if err != nil {
		// Automatic dispatch never errors.
		panic("cqa: internal: " + err.Error())
	}
	return r
}

// Execute decides CERTAINTY(q) on db with explicit options, reusing the
// compiled artifacts. It is ExecuteCtx with a background context.
func (p *Plan) Execute(db *instance.Instance, opts Options) (Result, error) {
	return p.ExecuteCtx(context.Background(), db, opts)
}

// ExecuteCtx is Execute bounded by a context: the context is checked
// before dispatch, the SAT tier — the only one whose per-decision
// work is worst-case exponential — polls it inside the CDCL search
// loop, and a fixpoint solve that engages the partitioned parallel
// path (see solveWorkers) polls it between rounds, so
// canceling the context releases a caller stuck in a hard coNP
// decision or a giant-instance solve. The remaining interned-tier
// decisions run in micro-seconds and are not interrupted mid-solve.
// On cancellation the context's error is returned and the result
// carries no decision; the memoized artifacts survive and no decision
// is stored, so a retry resumes warm and decides.
func (p *Plan) ExecuteCtx(ctx context.Context, db *instance.Instance, opts Options) (Result, error) {
	res := Result{Class: p.report.Class}
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return res, err
	}

	method := opts.Force
	if method == "" {
		method = p.method
	} else if !sound(method, p.report.Class) {
		return res, fmt.Errorf("%w: %s for %v query %v", ErrUnsoundMethod, method, p.report.Class, p.word)
	}
	if method == MethodExhaustive {
		res.Method = MethodExhaustive
		res.Certain = repairs.IsCertain(db, p.word)
		if !res.Certain {
			res.Counterexample = repairs.Counterexample(db, p.word)
		}
		return res, nil
	}
	note := ""
	if method == MethodNL {
		if s := p.tier(MethodNL); s.err != nil {
			// Certified decomposition unavailable: fall back to the
			// fixpoint tier (correct for all C3 ⊇ C2 queries).
			method, note = MethodFixpoint, s.note
		}
	}

	iv := db.Interned()
	out, err := p.tier(method).run.run(ctx, iv, opts)
	if err != nil {
		return res, err
	}
	out.Class = res.Class
	if note != "" {
		out.Note = note
	}
	if opts.WantCounterexample && !out.Certain && out.Counterexample == nil {
		sat, err := p.tier(MethodSAT).run.run(ctx, iv, opts)
		if err != nil {
			return res, err
		}
		out.Counterexample = sat.Counterexample
	}
	return out, nil
}

// sound reports whether a tier decides queries of the given class.
func sound(m Method, cls classify.Class) bool {
	switch m {
	case MethodFO:
		return cls == classify.FO
	case MethodNL:
		return cls == classify.FO || cls == classify.NL
	case MethodFixpoint:
		return cls != classify.CoNP
	case MethodSAT, MethodExhaustive:
		return true
	}
	return false
}
