// Package cqa is a library for consistent query answering (CQA) under
// primary-key constraints on path queries, implementing the PODS 2021
// paper "Consistent Query Answering for Primary Keys on Path Queries" by
// Koutris, Ouyang and Wijsen (arXiv:2309.15270).
//
// Given a Boolean path query q — a word R1 R2 ... Rk of binary relation
// names, keyed on the first position — and a database instance that may
// violate its primary keys, CERTAINTY(q) asks whether EVERY repair
// (maximal consistent subset) of the instance satisfies q. The paper
// proves a tetrachotomy: depending on syntactic conditions C1 ⊆ C2 ⊆ C3
// on q, the problem is in FO, NL-complete, PTIME-complete, or
// coNP-complete, decidable in polynomial time in |q|.
//
// This package is the public facade: Classify reports the complexity
// class with witnesses, and Certain decides CERTAINTY(q, db) by
// dispatching to the cheapest applicable solver tier:
//
//   - FO: the consistent first-order rewriting of Lemma 13;
//   - NL: the loop-decomposition procedure of Section 6.3;
//   - PTIME: the fixpoint algorithm of Figure 5;
//   - coNP: CDCL SAT on a polynomial encoding of the complement.
//
// All decisions run through compiled plans (see the Engine quickstart
// in engine.go): classification and the tier-specific machinery are
// computed once per query word and cached, and CertainBatch evaluates
// many (query, instance) pairs concurrently on a worker pool.
//
// Every tier is differentially tested against exhaustive repair
// enumeration. The paper-artifact reproductions are cmd/cqabench's
// experiments E1–E13, which cmd/cqabench/main_test.go runs with the
// package tests.
package cqa

import (
	"context"
	"fmt"

	"cqa/internal/classify"
	"cqa/internal/instance"
	"cqa/internal/plan"
	"cqa/internal/query"
	"cqa/internal/repairs"
)

// Class is the complexity class of CERTAINTY(q) in Theorem 2's
// tetrachotomy.
type Class = classify.Class

// The four classes of the tetrachotomy.
const (
	FO    = classify.FO
	NL    = classify.NL
	PTime = classify.PTime
	CoNP  = classify.CoNP
)

// Query is a Boolean path query.
type Query = query.Path

// Instance is a database instance over binary relations with primary
// keys on the first position.
type Instance = instance.Instance

// Fact is a fact R(key, val).
type Fact = instance.Fact

// ParseQuery parses a path query from word syntax, e.g. "RRX" or
// "Follows Likes Follows".
func ParseQuery(s string) (Query, error) { return query.Parse(s) }

// MustParseQuery is ParseQuery that panics on error.
func MustParseQuery(s string) Query { return query.MustParse(s) }

// NewInstance returns an empty database instance.
func NewInstance() *Instance { return instance.New() }

// ParseFacts parses a whitespace-separated fact list such as
// "R(0,1) R(1,2) X(2,3)".
func ParseFacts(s string) (*Instance, error) { return instance.ParseFacts(s) }

// ParseFact parses one fact token such as "R(0,1)".
func ParseFact(s string) (Fact, error) { return instance.ParseFact(s) }

// Classify returns the complexity class of CERTAINTY(q) (Theorem 3).
func Classify(q Query) Class { return classify.Classify(q.Word()) }

// Explain returns the full classification report, including witnessing
// decompositions for violated conditions.
func Explain(q Query) classify.Report { return classify.Explain(q.Word()) }

// Method identifies the solver tier used for a decision.
type Method = plan.Method

// Solver tiers.
const (
	MethodFO         = plan.MethodFO
	MethodNL         = plan.MethodNL
	MethodFixpoint   = plan.MethodFixpoint
	MethodSAT        = plan.MethodSAT
	MethodExhaustive = plan.MethodExhaustive
)

// Result is the outcome of a certainty decision.
type Result = plan.Result

// Options tunes Certain.
type Options = plan.Options

// ErrUnsoundMethod is returned when a forced method does not cover the
// query's complexity class.
var ErrUnsoundMethod = plan.ErrUnsoundMethod

// Certain decides CERTAINTY(q) on db with automatic tier dispatch. It
// runs on the package-level default Engine, so the compiled plan for q
// is cached and reused across calls.
func Certain(q Query, db *Instance) Result {
	return defaultEngine.Certain(q, db)
}

// CertainOpt decides CERTAINTY(q) on db with explicit options, reusing
// the default Engine's cached plan for q.
func CertainOpt(q Query, db *Instance, opts Options) (Result, error) {
	return defaultEngine.CertainOpt(q, db, opts)
}

// CertainCtx is Certain bounded by a context; see Engine.CertainCtx
// for the cancellation contract.
func CertainCtx(ctx context.Context, q Query, db *Instance) (Result, error) {
	return defaultEngine.CertainCtx(ctx, q, db)
}

// CertainOptCtx is CertainOpt bounded by a context; see
// Engine.CertainCtx for the cancellation contract.
func CertainOptCtx(ctx context.Context, q Query, db *Instance, opts Options) (Result, error) {
	return defaultEngine.CertainOptCtx(ctx, q, db, opts)
}

// Rewrite returns the consistent first-order rewriting of Lemma 13 as a
// formula string; it errors unless CERTAINTY(q) is in FO. The formula
// comes from the default Engine's cached plan.
func Rewrite(q Query) (string, error) {
	p := defaultEngine.Compile(q)
	s, ok := p.Rewriting()
	if !ok {
		return "", fmt.Errorf("cqa: %v is %v; no first-order rewriting exists", q, p.Class())
	}
	return s, nil
}

// CountRepairs returns the number of repairs of db as a decimal string
// (the count is a product of block sizes and can be astronomically
// large).
func CountRepairs(db *Instance) string { return repairs.Count(db).String() }

// RewindLanguage enumerates L↬(q) — the rewinding closure of q,
// accepted by NFA(q) (Lemma 4) — up to the given word length.
func RewindLanguage(q Query, maxLen int) []string {
	var out []string
	for _, w := range q.Word().RewindClosure(maxLen) {
		out = append(out, w.String())
	}
	return out
}
