// Command cqabench regenerates the paper's artifacts as experiments
// E1–E13: the figures, examples and lemmas named in the experiment
// table below, the Theorem 3 tetrachotomy with the agreement of its
// solver tiers, and Section 8's queries with constants. Each experiment
// prints the measured value next to the paper's and reports MATCH or
// MISMATCH. Run all experiments with no arguments (exit status 0 iff
// every one matches), or select one with -e E4; main_test.go runs the
// same table under go test. Timings live in the gated testing.B series
// of the root package, not here.
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
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
	"cqa/internal/genq"
	"cqa/internal/graphs"
	"cqa/internal/instance"
	"cqa/internal/nl"
	"cqa/internal/reductions"
	"cqa/internal/repairs"
	"cqa/internal/words"
)

type experiment struct {
	id    string
	title string
	run   func() bool // returns true when measured matches paper
}

// experiments is the paper-artifact table, in paper order.
var experiments = []experiment{
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
}

func main() {
	sel := flag.String("e", "", "run a single experiment (E1..E13)")
	flag.Parse()
	allOK := true
	for _, e := range experiments {
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
	fp := fixpoint.Compile(q.Word()).Solve(db)
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
	cp := fixpoint.Compile(q)
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
		got := !cp.Solve(db).Certain
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
	cp := fixpoint.Compile(q)
	agree, total := 0, 60
	for i := 0; i < total; i++ {
		c, sigma := circuits.Random(rng, 1+rng.Intn(4), 1+rng.Intn(8))
		db, err := reductions.FromMCVP(q, c, sigma)
		if err != nil {
			fmt.Println("  error:", err)
			return false
		}
		if cp.Solve(db).Certain == c.Value(sigma) {
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
	return violations == 0
}

func indent(s string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	return "  " + strings.Join(lines, "\n  ") + "\n"
}
