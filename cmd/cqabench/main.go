// Command cqabench regenerates every paper artifact indexed in
// DESIGN.md (experiments E1–E13) and prints paper-vs-measured tables;
// EXPERIMENTS.md records its output. E14–E19 go beyond the paper: they
// measure the serving-path wins — the interned per-(plan, instance)
// memos of the fixpoint, NL and coNP tiers (E14–E16), the sharded
// batch scheduler against the per-request scheduler on a skewed word
// mix (E17), warm decisions under instance churn via the delta-intern
// + lineage-repair path (E18), and intra-query parallelism on giant
// instances — partitioned fixpoint, sharded NL stages, the streaming
// bulk loader — against the single-core twins (E19). Run all
// experiments with no arguments, or select one with -e E4.
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"cqa"
	"cqa/internal/automata"
	"cqa/internal/circuits"
	"cqa/internal/classify"
	"cqa/internal/conp"
	"cqa/internal/cq"
	"cqa/internal/fixpoint"
	"cqa/internal/fo"
	"cqa/internal/genq"
	"cqa/internal/graphs"
	"cqa/internal/instance"
	"cqa/internal/nl"
	"cqa/internal/reductions"
	"cqa/internal/repairs"
	"cqa/internal/words"
	"cqa/internal/workload"
)

type experiment struct {
	id    string
	title string
	run   func() bool // returns true when measured matches paper
}

func main() {
	sel := flag.String("e", "", "run a single experiment (E1..E19)")
	flag.Parse()
	exps := []experiment{
		{"E1", "Figure 1 / Examples 1-2: self-joins change certainty", e1},
		{"E2", "Figure 2 / Example 4: q=RRX yes-instance and start sets", e2},
		{"E3", "Figure 3: q=ARRX no-instance despite ARR(R)*X paths", e3},
		{"E4", "Example 3: tetrachotomy classification", e4},
		{"E5", "Figure 4: NFA(RXRRR) structure", e5},
		{"E6", "Figure 6: fixpoint iteration trace", e6},
		{"E7", "Lemma 16 / Example 6: NFAmin languages", e7},
		{"E8", "Lemma 18 / Figure 8: NL-hardness reduction", e8},
		{"E9", "Lemma 19 / Figure 9: coNP-hardness reduction", e9},
		{"E10", "Lemma 20 / Figure 10: PTIME-hardness reduction (MCVP)", e10},
		{"E11", "Theorem 3 upper bounds: solver tier agreement", e11},
		{"E12", "Section 8 / Examples 8-10: queries with constants", e12},
		{"E13", "Proposition 1, Lemmas 1-3: word-combinatorics census", e13},
		{"E14", "Interned fixpoint serving: resident binding cold vs warm", e14},
		{"E15", "Interned NL serving: loop procedure cold vs warm", e15},
		{"E16", "Interned coNP serving: CNF memo + incremental solve cold vs warm", e16},
		{"E17", "Sharded batch serving: skewed word mix, sharded vs per-request scheduler", e17},
		{"E18", "Churning instances: warm decision after an in-universe mutation, per tier", e18},
		{"E19", "Giant instances: partitioned solver and bulk loader vs single-core, per tier", e19},
	}
	allOK := true
	for _, e := range exps {
		if *sel != "" && e.id != *sel {
			continue
		}
		fmt.Printf("== %s: %s ==\n", e.id, e.title)
		start := time.Now()
		ok := e.run()
		status := "MATCH"
		if !ok {
			status = "MISMATCH"
			allOK = false
		}
		fmt.Printf("-- %s: %s (%.2fs)\n\n", e.id, status, time.Since(start).Seconds())
	}
	if !allOK {
		os.Exit(1)
	}
}

func e1() bool {
	db := instance.MustParseFacts(
		"R(a,a) R(a,b) R(b,a) R(b,b) S(a,a) S(a,b) S(b,a) S(b,b)")
	q1 := cq.New(
		cq.Atom{Rel: "R", S: cq.Var("x"), T: cq.Var("y")},
		cq.Atom{Rel: "R", S: cq.Var("y"), T: cq.Var("x")})
	q2 := cq.New(
		cq.Atom{Rel: "R", S: cq.Var("x"), T: cq.Var("y")},
		cq.Atom{Rel: "S", S: cq.Var("y"), T: cq.Var("x")})
	got1 := cq.IsCertain(db, q1)
	got2 := cq.IsCertain(db, q2)
	fmt.Printf("  CERTAINTY(q1 = R(x,y)∧R(y,x)) on Figure 1: got %v, paper says yes\n", got1)
	fmt.Printf("  CERTAINTY(q2 = R(x,y)∧S(y,x)) on Figure 1: got %v, paper says no\n", got2)
	return got1 && !got2
}

func e2() bool {
	db := instance.MustParseFacts("R(0,1) R(1,2) R(1,3) R(2,3) X(3,4)")
	q := cqa.MustParseQuery("RRX")
	res := cqa.Certain(q, db)
	fp := fixpoint.Solve(db, q.Word())
	r1 := instance.MustParseFacts("R(0,1) R(1,2) R(2,3) X(3,4)")
	r2 := instance.MustParseFacts("R(0,1) R(1,3) R(2,3) X(3,4)")
	s1 := keys(startSet(r1, q.Word()))
	s2 := keys(startSet(r2, q.Word()))
	fmt.Printf("  yes-instance: got %v (method %s), paper says yes\n", res.Certain, res.Method)
	fmt.Printf("  certain starts (Corollary 1): %v, paper says [0]\n", fp.Starts)
	fmt.Printf("  start(q, r1) = %v (paper: [0 1]); start(q, r2) = %v (paper: [0])\n", s1, s2)
	fmt.Printf("  L↬(RRX) up to length 6: %v (paper: RR(R)*X)\n", cqa.RewindLanguage(q, 6))
	return res.Certain && fmt.Sprint(fp.Starts) == "[0]" &&
		fmt.Sprint(s1) == "[0 1]" && fmt.Sprint(s2) == "[0]"
}

func startSet(r *instance.Instance, q words.Word) map[string]bool {
	a := automata.New(q)
	out := map[string]bool{}
	for _, c := range r.Adom() {
		for l := q.Len(); l <= q.Len()+6; l++ {
			done := false
			for _, w := range a.AcceptedWords(0, l) {
				if r.HasTraceFrom(c, w) {
					out[c] = true
					done = true
					break
				}
			}
			if done {
				break
			}
		}
	}
	return out
}

func keys(m map[string]bool) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func e3() bool {
	db := instance.MustParseFacts("A(0,a) R(a,b) R(a,c) R(b,c) R(c,b) X(c,t)")
	q := cqa.MustParseQuery("ARRX")
	res, _ := cqa.CertainOpt(q, db, cqa.Options{WantCounterexample: true})
	every := true
	repairs.ForEach(db, func(r *instance.Instance) bool {
		if !r.HasTraceFrom("0", words.MustParse("ARRX")) &&
			!r.HasTraceFrom("0", words.MustParse("ARRRX")) {
			every = false
		}
		return true
	})
	fmt.Printf("  no-instance: got certain=%v (paper: no-instance)\n", res.Certain)
	fmt.Printf("  every repair has an ARR(R)*X path from 0: %v (paper: yes)\n", every)
	fmt.Printf("  counterexample repair: %s\n", res.Counterexample)
	return !res.Certain && every && res.Counterexample != nil
}

func e4() bool {
	rows := []struct {
		q    string
		want cqa.Class
	}{
		{"RXRX", cqa.FO}, {"RXRY", cqa.NL}, {"RXRYRY", cqa.PTime}, {"RXRXRYRY", cqa.CoNP},
		{"RR", cqa.FO}, {"RRX", cqa.NL}, {"ARRX", cqa.CoNP},
	}
	ok := true
	fmt.Printf("  %-10s %-16s %-16s\n", "query", "measured", "paper")
	for _, r := range rows {
		got := cqa.Classify(cqa.MustParseQuery(r.q))
		fmt.Printf("  %-10s %-16v %-16v\n", r.q, got, r.want)
		ok = ok && got == r.want
	}
	return ok
}

func e5() bool {
	a := automata.New(words.MustParse("RXRRR"))
	back := 0
	for j := 0; j <= 5; j++ {
		back += len(a.BackwardTargets(j))
	}
	fmt.Printf("  states: %d (paper: 6), backward ε-transitions: %d (paper: 6)\n",
		a.NumStates(), back)
	fmt.Printf("  DOT output available via `cqa nfa -q RXRRR`\n")
	return a.NumStates() == 6 && back == 6
}

func e6() bool {
	db := instance.MustParseFacts("R(0,1) R(1,2) R(2,3) R(1,4) R(2,4) R(3,4) X(4,5)")
	q := words.MustParse("RRX")
	res, traces := fixpoint.SolveNaive(db, q)
	fmt.Print(indent(fixpoint.FormatTrace(q, traces)))
	want := "[{4 2}];[{3 1} {3 2}];[{2 1} {2 2}];[{1 1} {1 2}];[{0 0} {0 1} {0 2}]"
	var got []string
	for _, tr := range traces {
		got = append(got, fmt.Sprint(tr.Added))
	}
	match := strings.Join(got, ";") == want
	fmt.Printf("  trace matches the paper's table: %v; certain=%v starts=%v (paper: yes, [0])\n",
		match, res.Certain, res.Starts)
	return match && res.Certain
}

func e7() bool {
	// Example 6: RXRYRY R... — RXRYRYR accepted by NFA(RXRYR), not by
	// NFAmin(RXRYR).
	q := words.MustParse("RXRYR")
	a := automata.New(q)
	long := words.MustParse("RXRYRYR")
	full := a.ToDFA().AcceptsWord(long)
	min := a.MinPrefixDFA().AcceptsWord(long)
	fmt.Printf("  NFA(RXRYR) accepts RXRYRYR: %v (paper: yes); NFAmin: %v (paper: no)\n", full, min)
	// Lemma 16 instances certified by the NL decomposer.
	ok := full && !min
	for _, qs := range []string{"RRX", "RXRY", "YYRR", "RRRX"} {
		d, err := nl.Decompose(words.MustParse(qs))
		if err != nil {
			fmt.Printf("  %s: no certified decomposition (%v)\n", qs, err)
			ok = false
			continue
		}
		fmt.Printf("  L(NFAmin(%s)) = %s  [certified by DFA equivalence]\n", qs, d.Language)
	}
	return ok
}

func e8() bool {
	rng := rand.New(rand.NewSource(1))
	q := words.MustParse("RRX")
	agree := 0
	total := 60
	for i := 0; i < total; i++ {
		n := 2 + rng.Intn(7)
		g := graphs.RandomDAG(rng, n, 0.3)
		db, err := reductions.FromReachability(q, g, "v0", fmt.Sprintf("v%d", n-1))
		if err != nil {
			fmt.Println("  error:", err)
			return false
		}
		want := g.Reachable("v0", fmt.Sprintf("v%d", n-1))
		got := !fixpoint.Solve(db, q).Certain
		if got == want {
			agree++
		}
	}
	fmt.Printf("  reachability(G,s,t) ⟺ co-CERTAINTY(RRX): %d/%d random DAGs agree (paper: all)\n", agree, total)
	return agree == total
}

func e9() bool {
	f := reductions.Figure9CNF()
	db, err := reductions.FromSAT(words.MustParse("ARRX"), f)
	if err != nil {
		fmt.Println("  error:", err)
		return false
	}
	res := conp.IsCertain(db, words.MustParse("ARRX"))
	fmt.Printf("  Figure 9 formula satisfiable: %v; built instance is a no-instance: %v (paper: both yes)\n",
		f.Satisfiable(), !res.Certain)
	fmt.Printf("  instance size: %d facts; CNF encoding: %d vars, %d clauses\n",
		db.Size(), res.Vars, res.Clauses)

	rng := rand.New(rand.NewSource(2))
	agree, total := 0, 60
	for i := 0; i < total; i++ {
		cnf := randomCNF(rng, 1+rng.Intn(4), 1+rng.Intn(5))
		db, err := reductions.FromSAT(words.MustParse("ARRX"), cnf)
		if err != nil {
			return false
		}
		if !conp.IsCertain(db, words.MustParse("ARRX")).Certain == cnf.Satisfiable() {
			agree++
		}
	}
	fmt.Printf("  SAT(ψ) ⟺ co-CERTAINTY(ARRX): %d/%d random formulas agree (paper: all)\n", agree, total)
	return !res.Certain && f.Satisfiable() && agree == total
}

func randomCNF(rng *rand.Rand, nv, nc int) reductions.CNF {
	f := reductions.CNF{NumVars: nv}
	for i := 0; i < nc; i++ {
		k := 1 + rng.Intn(3)
		var clause []int
		for j := 0; j < k; j++ {
			v := 1 + rng.Intn(nv)
			if rng.Intn(2) == 0 {
				v = -v
			}
			clause = append(clause, v)
		}
		f.Clauses = append(f.Clauses, clause)
	}
	return f
}

func e10() bool {
	rng := rand.New(rand.NewSource(3))
	q := words.MustParse("RXRYRY")
	agree, total := 0, 60
	for i := 0; i < total; i++ {
		c, sigma := circuits.Random(rng, 1+rng.Intn(4), 1+rng.Intn(8))
		db, err := reductions.FromMCVP(q, c, sigma)
		if err != nil {
			fmt.Println("  error:", err)
			return false
		}
		if fixpoint.Solve(db, q).Certain == c.Value(sigma) {
			agree++
		}
	}
	fmt.Printf("  value(C,σ) ⟺ CERTAINTY(RXRYRY): %d/%d random monotone circuits agree (paper: all)\n", agree, total)
	return agree == total
}

func e11() bool {
	rng := rand.New(rand.NewSource(4))
	queries := []cqa.Query{
		cqa.MustParseQuery("RR"), cqa.MustParseQuery("RRX"),
		cqa.MustParseQuery("RXRYRY"), cqa.MustParseQuery("ARRX"),
	}
	// All decisions go through one engine as a single concurrent batch:
	// 480 requests share 4 compiled plans.
	var reqs []cqa.Request
	for it := 0; it < 120; it++ {
		db := cqa.NewInstance()
		n := 1 + rng.Intn(8)
		for i := 0; i < n; i++ {
			rel := []string{"R", "X", "Y", "A"}[rng.Intn(4)]
			db.AddFact(rel, string(rune('a'+rng.Intn(4))), string(rune('a'+rng.Intn(4))))
		}
		for _, q := range queries {
			reqs = append(reqs, cqa.Request{Query: q, DB: db})
		}
	}
	eng := cqa.NewEngine(cqa.EngineConfig{})
	results := eng.CertainBatch(context.Background(), reqs)
	total, agree := 0, 0
	for i, res := range results {
		if res.Err != nil {
			fmt.Printf("  error: %v\n", res.Err)
			return false
		}
		want := repairs.IsCertain(reqs[i].DB, reqs[i].Query.Word())
		total++
		if res.Certain == want {
			agree++
		}
	}
	stats := eng.Stats()
	fmt.Printf("  dispatched tier vs exhaustive ground truth: %d/%d agree (paper: all)\n", agree, total)
	fmt.Printf("  engine: %d requests served by %d compiled plans (%d cache hits)\n",
		len(reqs), stats.Plans.Entries, stats.Plans.Hits)
	return agree == total && stats.Plans.Entries == len(queries)
}

func e12() bool {
	// Examples 8-10 and Theorem 5.
	q := genq.MustParse("R(x,y) S(y,0) T(0,1) R(1,w)")
	ch, gamma := q.CharPrefix()
	ext := q.Ext()
	fmt.Printf("  char(q) = %v with γ=%s (paper: {R(x,y), S(y,0)}); ext(q) = %v (paper: RSN)\n",
		ch.Word(), gamma, ext)
	okChar := ch.Word().String() == "RS" && gamma == "0" && ext.String() == "RSN"

	cases := []struct {
		q    string
		want cqa.Class
	}{
		{"R(x,y) R(y,0)", cqa.NL},
		{"R(x,y) R(y,z) X(z,0)", cqa.NL},
		{"S(x,y) R(y,0)", cqa.FO},
	}
	okCls := true
	for _, c := range cases {
		got := genq.Classify(genq.MustParse(c.q))
		fmt.Printf("  Classify(%s) = %v (Theorem 5: never PTIME-complete)\n", c.q, got)
		okCls = okCls && got == c.want && got != cqa.PTime
	}
	// Differential check of the constant-elimination solver.
	rng := rand.New(rand.NewSource(5))
	gq := genq.MustParse("R(x,y) R(y,z) X(z,0)")
	agree, total := 0, 80
	solve := func(db *instance.Instance, w words.Word) bool {
		return conp.IsCertain(db, w).Certain
	}
	for i := 0; i < total; i++ {
		db := instance.New()
		for j := 0; j < 1+rng.Intn(7); j++ {
			rel := []string{"R", "X"}[rng.Intn(2)]
			cs := []string{"a", "b", "0", "1"}
			db.AddFact(rel, cs[rng.Intn(4)], cs[rng.Intn(4)])
		}
		got := genq.IsCertain(db, gq, solve)
		want := true
		repairs.ForEach(db, func(r *instance.Instance) bool {
			if !gq.Satisfies(r) {
				want = false
				return false
			}
			return true
		})
		if got == want {
			agree++
		}
	}
	fmt.Printf("  constant-elimination solver vs exhaustive: %d/%d agree (paper: all)\n", agree, total)
	return okChar && okCls && agree == total
}

func e13() bool {
	// Census over all words up to length 6 over {R,X}: Proposition 1 and
	// the C=B lemma identities, plus the tetrachotomy distribution.
	counts := map[cqa.Class]int{}
	violations := 0
	var rec func(cur words.Word)
	rec = func(cur words.Word) {
		if len(cur) > 0 {
			c1, _ := classify.C1(cur)
			c2, _ := classify.C2(cur)
			c3, _ := classify.C3(cur)
			if (c1 && !c2) || (c2 && !c3) {
				violations++
			}
			if c1 != (classify.FindB1(cur) != nil) {
				violations++
			}
			b2 := classify.FindB2a(cur) != nil || classify.FindB2b(cur) != nil
			if c2 != b2 {
				violations++
			}
			if c3 != (b2 || classify.FindB3(cur) != nil) {
				violations++
			}
			counts[classify.Classify(cur)]++
		}
		if len(cur) == 6 {
			return
		}
		for _, a := range []string{"R", "X"} {
			rec(append(cur, a))
		}
	}
	rec(words.Word{})
	fmt.Printf("  words up to length 6 over {R,X}: FO=%d NL=%d PTIME=%d coNP=%d\n",
		counts[cqa.FO], counts[cqa.NL], counts[cqa.PTime], counts[cqa.CoNP])
	fmt.Printf("  Proposition 1 and Lemmas 1-3 identities: %d violations (paper: 0)\n", violations)
	_ = workload.Config{}
	return violations == 0
}

func indent(s string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	return "  " + strings.Join(lines, "\n  ") + "\n"
}

// e14 measures the serving-path effect of interned evaluation: the
// Figure 5 solver bound to one (plan, instance) pair reuses its
// interned transition tables across calls, so a warm call pays only
// the worklist iteration. Cold timings recompile the query machinery
// (and rebuild the tables) per call. The detailed ns/op numbers live in
// bench_test.go (BenchmarkEngineReuse); this experiment asserts the
// qualitative claim: warm per-call cost is below cold per-call cost,
// with identical answers.
func e14() bool {
	q := words.MustParse("RXRYRY")
	db := workload.Random(workload.Config{
		Relations:    []string{"R", "X", "Y"},
		Constants:    200,
		Facts:        400,
		ConflictRate: 0.3,
		Seed:         14,
	})
	const iters = 200

	cold := time.Now()
	var coldCertain bool
	for i := 0; i < iters; i++ {
		coldCertain = fixpoint.Solve(db, q).Certain // Compile + bind + solve per call
	}
	coldNs := float64(time.Since(cold).Nanoseconds()) / iters

	cp := fixpoint.Compile(q)
	iv := db.Interned()
	bd := cp.Bind(iv, fixpoint.SolveOptions{}) // bind once
	warm := time.Now()
	var warmCertain bool
	for i := 0; i < iters; i++ {
		// Resident binding: worklist only.
		res, _ := cp.SolveBound(context.Background(), iv, bd, fixpoint.SolveOptions{})
		warmCertain = res.Certain
	}
	warmNs := float64(time.Since(warm).Nanoseconds()) / iters

	fmt.Printf("  q=%v, |db|=%d facts, |adom|=%d: cold %.0f ns/call, warm %.0f ns/call (%.1fx)\n",
		q, db.Size(), len(db.Adom()), coldNs, warmNs, coldNs/warmNs)
	fmt.Printf("  answers agree: %v (certain=%v)\n", coldCertain == warmCertain, warmCertain)
	return coldCertain == warmCertain && warmNs < coldNs
}

// e15 extends E14's serving trajectory to the NL tier: the Section 6.3
// loop procedure run cold (Decompose certification + artifact build per
// call, via nl.IsCertain) against one reused Evaluator whose
// per-snapshot artifacts are resident (warm calls scan the resident O
// bitset). Printed alongside E14 so the cold-vs-warm story covers both
// serving tiers in one place.
func e15() bool {
	ok := true
	fmt.Printf("  %-11s %8s %8s %12s %12s %9s\n", "query", "facts", "|adom|", "cold ns", "warm ns", "speedup")
	for _, qs := range []string{"RRX", "RRRRRRRRX"} {
		q := words.MustParse(qs)
		ev, err := nl.NewEvaluator(q)
		if err != nil {
			fmt.Printf("  %s: %v\n", qs, err)
			return false
		}
		for _, facts := range []int{20, 100, 1000} {
			db := workload.Random(workload.Config{
				Relations:    []string{"R", "X"},
				Constants:    facts / 2,
				Facts:        facts,
				ConflictRate: 0.3,
				Seed:         15,
			})
			iters := 100
			if facts >= 1000 {
				iters = 20
			}
			cold := time.Now()
			var coldCertain bool
			for i := 0; i < iters; i++ {
				c, _, err := nl.IsCertain(db, q) // Decompose + certify + build per call
				if err != nil {
					fmt.Printf("  %s: %v\n", qs, err)
					return false
				}
				coldCertain = c
			}
			coldNs := float64(time.Since(cold).Nanoseconds()) / float64(iters)

			iv := db.Interned()
			bd := ev.Bind(iv, fixpoint.SolveOptions{}) // build the per-snapshot artifacts once
			warm := time.Now()
			var warmCertain bool
			for i := 0; i < 50*iters; i++ {
				warmCertain = ev.Certain(iv, bd)
			}
			warmNs := float64(time.Since(warm).Nanoseconds()) / float64(50*iters)

			fmt.Printf("  %-11s %8d %8d %12.0f %12.1f %8.0fx\n",
				qs, db.Size(), len(db.Adom()), coldNs, warmNs, coldNs/warmNs)
			ok = ok && coldCertain == warmCertain && warmNs < coldNs
		}
	}
	return ok
}

// e16 completes the cold-vs-warm serving story for the deepest tier:
// the coNP SAT fallback. Cold calls re-encode the CNF and solve from
// scratch per call (conp.IsCertain); warm calls go through one
// conp.Compiled over a resident encoding that keeps the CNF and the
// incremental solver, so only the assumption-based re-solve runs
// (saved phases on no-instances, level-0 assumption failure on
// certain ones).
func e16() bool {
	ok := true
	q := words.MustParse("ARRX")
	fmt.Printf("  %-6s %8s %8s %8s %12s %12s %9s\n",
		"query", "facts", "certain", "clauses", "cold ns", "warm ns", "speedup")
	for _, facts := range []int{50, 100, 400, 1000} {
		db := workload.Random(workload.Config{
			Relations:    []string{"R", "X", "Y", "A"},
			Constants:    facts / 2,
			Facts:        facts,
			ConflictRate: 0.3,
			Seed:         42,
		})
		iters := 100
		if facts >= 400 {
			iters = 20
		}
		cold := time.Now()
		var coldRes bool
		var clauses int
		for i := 0; i < iters; i++ {
			r := conp.IsCertain(db, q) // encode + load + solve per call
			coldRes, clauses = r.Certain, r.Clauses
		}
		coldNs := float64(time.Since(cold).Nanoseconds()) / float64(iters)

		cp := conp.Compile(q)
		iv := db.Interned()
		enc := cp.Encode(iv) // encode the CNF once
		warm := time.Now()
		var warmRes bool
		for i := 0; i < 10*iters; i++ {
			res, _ := cp.Solve(context.Background(), iv, enc)
			warmRes = res.Certain
		}
		warmNs := float64(time.Since(warm).Nanoseconds()) / float64(10*iters)

		fmt.Printf("  %-6v %8d %8v %8d %12.0f %12.0f %8.1fx\n",
			q, db.Size(), coldRes, clauses, coldNs, warmNs, coldNs/warmNs)
		ok = ok && coldRes == warmRes && warmNs < coldNs
	}
	return ok
}

// e17 measures the engine's two-phase sharded batch scheduler against
// the per-request scheduler it replaced (EngineConfig.BatchShardSize <
// 0) on a skewed serving mix: two hot query words cycling over 24
// shared instances — scattered in input order, so the per-request
// scheduler churns the 16-entry per-plan binding memos, while
// snapshot-affine shards build each (plan, snapshot) artifact exactly
// once — plus a tail of cold NL words whose certification-heavy plans
// the sharded pre-pass compiles off the evaluation workers' critical
// path. Fresh engines per round replay compilation, like a serving
// tier picking up a new workload; decisions must be identical.
func e17() bool {
	const nInstances = 24
	dbs := make([]*instance.Instance, nInstances)
	for i := range dbs {
		dbs[i] = workload.Random(workload.Config{
			Relations:    []string{"R", "X", "Y"},
			Constants:    100,
			Facts:        200,
			ConflictRate: 0.3,
			Seed:         int64(1700 + i),
		})
	}
	hot := []cqa.Query{cqa.MustParseQuery("RRX"), cqa.MustParseQuery("RXRYRY")}
	var reqs []cqa.Request
	for i := 0; i < 4*len(hot)*nInstances; i++ {
		reqs = append(reqs, cqa.Request{
			Query: hot[i%len(hot)],
			DB:    dbs[(i/len(hot))%nInstances],
		})
	}
	for k := 3; k <= 10; k++ {
		reqs = append(reqs, cqa.Request{
			Query: cqa.MustParseQuery(strings.Repeat("R", k) + "X"),
			DB:    dbs[0],
		})
	}

	const rounds = 5
	run := func(shardSize int) ([]cqa.Result, float64, cqa.Stats) {
		var last []cqa.Result
		var stats cqa.Stats
		start := time.Now()
		for r := 0; r < rounds; r++ {
			eng := cqa.NewEngine(cqa.EngineConfig{BatchShardSize: shardSize})
			last = eng.CertainBatch(context.Background(), reqs)
			stats = eng.Stats()
		}
		perReq := float64(time.Since(start).Nanoseconds()) / float64(rounds*len(reqs))
		return last, perReq, stats
	}
	run(0) // warm the interned snapshots so both schedulers measure evaluation
	sharded, shardedNs, stats := run(0)
	unsharded, unshardedNs, _ := run(-1)

	agree := true
	for i := range sharded {
		if sharded[i].Err != nil || unsharded[i].Err != nil ||
			sharded[i].Certain != unsharded[i].Certain ||
			sharded[i].Method != unsharded[i].Method {
			agree = false
			break
		}
	}
	fmt.Printf("  %d requests (%d words, %d instances): sharded %.0f ns/req, per-request %.0f ns/req (%.1fx)\n",
		len(reqs), 2+8, nInstances, shardedNs, unshardedNs, unshardedNs/shardedNs)
	fmt.Printf("  scheduler: %d shards, %d plans compiled per batch; decisions identical: %v\n",
		stats.Plans.Shards, stats.Plans.Compiles, agree)
	return agree && shardedNs < unshardedNs
}

// e18 measures the serving regime E14–E16 leave out: the instance
// mutates between decisions. Each tier's engine decides a query warm on
// an unchanged snapshot (pure memo hit), then under a toggling
// in-universe mutation per call — the structural delta-intern path plus
// the tier's lineage repair (fixpoint binding patch, NL slice
// invalidation, coNP CNF patch) — and cold per call for scale. The win
// to verify: warm-after-mutation stays within a small constant of the
// pure hit (benchgate bounds it at 10x at facts=1000) and orders of
// magnitude under the cold rebuild a mutation used to force.
func e18() bool {
	ok := true
	cases := []struct {
		tier   string
		query  string
		mutRel string
	}{
		{"fixpoint", "RXRYRY", "R"},
		{"nl", "RRX", "Y"},
		{"conp", "ARRX", "R"},
	}
	fmt.Printf("  %-9s %-7s %8s %12s %13s %12s %10s %10s\n",
		"tier", "query", "facts", "warm ns", "mutated ns", "cold ns", "mut/warm", "cold/mut")
	for _, c := range cases {
		q := cqa.MustParseQuery(c.query)
		for _, facts := range []int{100, 1000, 10000} {
			db := workload.Random(workload.Config{
				Relations:    []string{"R", "X", "Y", "A"},
				Constants:    facts / 2,
				Facts:        facts,
				ConflictRate: 0.3,
				Seed:         42,
			})
			var fct instance.Fact
			found := false
			for _, bid := range db.ConflictingBlocks() {
				if bid.Rel != c.mutRel || found {
					continue
				}
				in := make(map[string]bool)
				for _, v := range db.Block(bid.Rel, bid.Key) {
					in[v] = true
				}
				for _, cc := range db.Adom() {
					if !in[cc] {
						fct = instance.Fact{Rel: c.mutRel, Key: bid.Key, Val: cc}
						found = true
						break
					}
				}
			}
			if !found {
				fmt.Printf("  %s facts=%d: no conflicting %s block with a free value\n", c.tier, facts, c.mutRel)
				return false
			}

			eng := cqa.NewEngine(cqa.EngineConfig{})
			want := eng.Certain(q, db) // compile + lineage root
			iters := 2000
			if facts >= 10000 {
				iters = 500
			}

			start := time.Now()
			for i := 0; i < iters; i++ {
				eng.Certain(q, db)
			}
			warmNs := float64(time.Since(start).Nanoseconds()) / float64(iters)

			start = time.Now()
			for i := 0; i < iters; i++ {
				if db.Contains(fct) {
					db.Remove(fct)
				} else {
					db.Add(fct)
				}
				if got := eng.Certain(q, db); got.Certain != want.Certain && !db.Contains(fct) {
					fmt.Printf("  %s facts=%d: decision flipped on restored instance\n", c.tier, facts)
					return false
				}
			}
			mutNs := float64(time.Since(start).Nanoseconds()) / float64(iters)
			if db.Contains(fct) { // leave the instance as found
				db.Remove(fct)
			}

			coldIters := 20
			if facts >= 10000 {
				coldIters = 3
			}
			start = time.Now()
			for i := 0; i < coldIters; i++ {
				fresh := cqa.NewEngine(cqa.EngineConfig{})
				fresh.Certain(q, db.Clone())
			}
			coldNs := float64(time.Since(start).Nanoseconds()) / float64(coldIters)

			fmt.Printf("  %-9s %-7s %8d %12.0f %13.0f %12.0f %9.1fx %9.0fx\n",
				c.tier, c.query, db.Size(), warmNs, mutNs, coldNs, mutNs/warmNs, coldNs/mutNs)
			ok = ok && mutNs < coldNs
		}
	}
	return ok
}

// e19 measures intra-query parallelism on giant instances: the
// partitioned fixpoint solver (cold bind + sharded worklist), the
// sharded NL Lemma 14 stages, and the streaming bulk CSV loader, each
// against its single-core twin at growing sizes up to facts=1e6. The
// pass criterion is answer/instance agreement, not speedup — the
// ratios are the measurement, and they only drop below 1 with real
// cores (on a single-core host every partitioned path degrades to the
// serial one by design; CI's bench gate enforces the ≤ 0.6 ratios at
// 4 cores).
func e19() bool {
	ok := true
	workers := runtime.GOMAXPROCS(0)
	fmt.Printf("  %d workers (GOMAXPROCS); ratios < 1 require multiple cores\n", workers)
	fmt.Printf("  %-9s %9s %14s %14s %7s\n", "stage", "facts", "serial ns", "parallel ns", "ratio")
	fpQ := words.MustParse("RXRYRA")
	nlQ := words.MustParse("RRX")
	for _, facts := range []int{10_000, 100_000, 1_000_000} {
		db := workload.Random(workload.Config{
			Relations:    []string{"R", "X", "Y", "A"},
			Constants:    facts / 2,
			Facts:        facts,
			ConflictRate: 0.3,
			Seed:         19,
		})
		iv := db.Interned()
		iters := 3
		if facts >= 1_000_000 {
			iters = 1
		}
		opts := fixpoint.SolveOptions{Workers: workers}
		row := func(stage string, serialNs, parallelNs float64) {
			fmt.Printf("  %-9s %9d %14.0f %14.0f %6.2fx\n",
				stage, facts, serialNs, parallelNs, parallelNs/serialNs)
		}

		// Fixpoint: fresh Compile per call keeps the binding build cold.
		serial := time.Now()
		var serialCertain bool
		for i := 0; i < iters; i++ {
			serialCertain = fixpoint.Compile(fpQ).SolveInterned(iv).Certain
		}
		serialNs := float64(time.Since(serial).Nanoseconds()) / float64(iters)
		parallel := time.Now()
		var parCertain bool
		for i := 0; i < iters; i++ {
			res, err := fixpoint.Compile(fpQ).SolveInternedCtx(context.Background(), iv, opts)
			if err != nil {
				fmt.Printf("  fixpoint: %v\n", err)
				return false
			}
			parCertain = res.Certain
		}
		parallelNs := float64(time.Since(parallel).Nanoseconds()) / float64(iters)
		row("fixpoint", serialNs, parallelNs)
		ok = ok && serialCertain == parCertain

		// NL: fresh Evaluator per call keeps the Lemma 14 stages cold.
		serial = time.Now()
		for i := 0; i < iters; i++ {
			ev, err := nl.NewEvaluator(nlQ)
			if err != nil {
				fmt.Printf("  nl: %v\n", err)
				return false
			}
			serialCertain = ev.IsCertain(db)
		}
		serialNs = float64(time.Since(serial).Nanoseconds()) / float64(iters)
		parallel = time.Now()
		for i := 0; i < iters; i++ {
			ev, err := nl.NewEvaluator(nlQ)
			if err != nil {
				fmt.Printf("  nl: %v\n", err)
				return false
			}
			parCertain = ev.IsCertainOpts(db, opts)
		}
		parallelNs = float64(time.Since(parallel).Nanoseconds()) / float64(iters)
		row("nl", serialNs, parallelNs)
		ok = ok && serialCertain == parCertain

		// Loader: both arms end with a published interned snapshot.
		var buf bytes.Buffer
		if err := db.WriteCSV(&buf); err != nil {
			fmt.Printf("  loader: %v\n", err)
			return false
		}
		data := buf.Bytes()
		serial = time.Now()
		var serialDB *instance.Instance
		for i := 0; i < iters; i++ {
			sdb, err := instance.ReadCSV(bytes.NewReader(data))
			if err != nil {
				fmt.Printf("  loader: %v\n", err)
				return false
			}
			sdb.Interned()
			serialDB = sdb
		}
		serialNs = float64(time.Since(serial).Nanoseconds()) / float64(iters)
		parallel = time.Now()
		var parDB *instance.Instance
		for i := 0; i < iters; i++ {
			pdb, err := instance.ReadCSVParallel(bytes.NewReader(data), workers)
			if err != nil {
				fmt.Printf("  loader: %v\n", err)
				return false
			}
			parDB = pdb
		}
		parallelNs = float64(time.Since(parallel).Nanoseconds()) / float64(iters)
		row("loader", serialNs, parallelNs)
		ok = ok && parDB.Equal(serialDB)
	}
	return ok
}

// fo is referenced here to keep the import set stable across edits.
var _ = fo.RewriteCertain
