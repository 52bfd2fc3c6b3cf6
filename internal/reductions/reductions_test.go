package reductions

import (
	"math/rand"
	"testing"

	"cqa/internal/circuits"
	"cqa/internal/conp"
	"cqa/internal/fixpoint"
	"cqa/internal/graphs"
	"cqa/internal/words"
)

// TestLemma18Equivalence machine-checks the NL-hardness reduction: for
// queries violating C1, G has an s-t path iff the built instance is a
// NO-instance of CERTAINTY(q). The target instances are solved with the
// fixpoint tier (all test queries satisfy C3) or the SAT tier.
func TestLemma18Equivalence(t *testing.T) {
	queries := []words.Word{
		words.MustParse("RRX"),  // violates C1 (NL-complete)
		words.MustParse("RXRY"), // violates C1 (NL-complete)
	}
	rng := rand.New(rand.NewSource(101))
	for it := 0; it < 40; it++ {
		n := 2 + rng.Intn(6)
		g := graphs.RandomDAG(rng, n, 0.3)
		s, tt := "v0", "v"+itoa(n-1)
		for _, q := range queries {
			db, err := FromReachability(q, g, s, tt)
			if err != nil {
				t.Fatal(err)
			}
			want := g.Reachable(s, tt) // path from s to t ⟺ NO-instance
			got := !fixpoint.Compile(q).Solve(db).Certain
			if got != want {
				t.Fatalf("it=%d q=%v: reachable=%v noInstance=%v db=%s", it, q, want, got, db)
			}
			// Cross-check with the SAT tier.
			if res := conp.IsCertain(db, q); res.Certain == want {
				t.Fatalf("it=%d q=%v: SAT tier disagrees", it, q)
			}
		}
	}
}

func TestLemma18RejectsC1Queries(t *testing.T) {
	g := graphs.New()
	g.AddEdge("a", "b")
	if _, err := FromReachability(words.MustParse("RR"), g, "a", "b"); err == nil {
		t.Error("RR satisfies C1; reduction must refuse")
	}
}

func TestFigure8Shape(t *testing.T) {
	// Figure 8: graph s -> a -> t, query violating C1; the instance has
	// the u/Rv/Rw gadgets. With q = RRX: u = ε, Rv = R, Rw = RX.
	g := graphs.New()
	g.AddEdge("s", "a").AddEdge("a", "t")
	db, err := FromReachability(words.MustParse("RRX"), g, "s", "t")
	if err != nil {
		t.Fatal(err)
	}
	// s is reachable from s, t reachable: NO-instance expected.
	if fixpoint.Compile(words.MustParse("RRX")).Solve(db).Certain {
		t.Errorf("reachable graph must yield a NO-instance:\n%s", db)
	}
}

// TestLemma19Equivalence machine-checks the coNP-hardness reduction:
// SAT(ψ) iff NO-instance, with the SAT tier as the target solver.
func TestLemma19Equivalence(t *testing.T) {
	queries := []words.Word{
		words.MustParse("ARRX"),
		words.MustParse("RXRXRYRY"),
	}
	rng := rand.New(rand.NewSource(102))
	for it := 0; it < 40; it++ {
		nv := 1 + rng.Intn(4)
		nc := 1 + rng.Intn(5)
		f := CNF{NumVars: nv}
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
		for _, q := range queries {
			db, err := FromSAT(q, f)
			if err != nil {
				t.Fatal(err)
			}
			want := f.Satisfiable()
			got := !conp.IsCertain(db, q).Certain
			if got != want {
				t.Fatalf("it=%d q=%v: sat=%v noInstance=%v clauses=%v", it, q, want, got, f.Clauses)
			}
		}
	}
}

func TestLemma19RejectsC3Queries(t *testing.T) {
	if _, err := FromSAT(words.MustParse("RRX"), Figure9CNF()); err == nil {
		t.Error("RRX satisfies C3; reduction must refuse")
	}
}

func TestFigure9Worked(t *testing.T) {
	f := Figure9CNF()
	if !f.Satisfiable() {
		t.Fatal("the Figure 9 formula is satisfiable")
	}
	db, err := FromSAT(words.MustParse("ARRX"), f)
	if err != nil {
		t.Fatal(err)
	}
	res := conp.IsCertain(db, words.MustParse("ARRX"))
	if res.Certain {
		t.Error("satisfiable formula must yield a NO-instance")
	}
	if res.Counterexample() == nil {
		t.Error("expected a counterexample repair encoding the assignment")
	}
}

// TestLemma20Equivalence machine-checks the PTIME-hardness reduction:
// circuit value 1 iff YES-instance, with the fixpoint tier (the target
// queries satisfy C3) as solver.
func TestLemma20Equivalence(t *testing.T) {
	queries := []words.Word{
		words.MustParse("RXRYRY"), // C3 but not C2 (PTIME-complete)
		words.MustParse("RYRXRX"), // symmetric PTIME-complete query
	}
	rng := rand.New(rand.NewSource(103))
	for it := 0; it < 40; it++ {
		c, sigma := circuits.Random(rng, 1+rng.Intn(4), 1+rng.Intn(8))
		for _, q := range queries {
			db, err := FromMCVP(q, c, sigma)
			if err != nil {
				t.Fatal(err)
			}
			want := c.Value(sigma)
			got := fixpoint.Compile(q).Solve(db).Certain
			if got != want {
				t.Fatalf("it=%d q=%v: value=%v certain=%v", it, q, want, got)
			}
		}
	}
}

func TestLemma20Rejections(t *testing.T) {
	c, sigma := circuits.Random(rand.New(rand.NewSource(1)), 2, 3)
	if _, err := FromMCVP(words.MustParse("RRX"), c, sigma); err == nil {
		t.Error("RRX satisfies C2; must refuse")
	}
	if _, err := FromMCVP(words.MustParse("ARRX"), c, sigma); err == nil {
		t.Error("ARRX violates C3; must refuse")
	}
	// Reproduction finding: RRSRS is PTIME-complete but its only
	// violating triple has an empty v1+ margin, so the Lemma 20 gadget
	// as stated in the paper does not apply (see the finding in FromMCVP).
	if _, err := FromMCVP(words.MustParse("RRSRS"), c, sigma); err == nil {
		t.Error("RRSRS has no usable triple; must refuse with an explanatory error")
	}
}

func TestFigure10Gadgets(t *testing.T) {
	// AND and OR gadgets on a tiny circuit o = x1 AND x2 / o = x1 OR x2.
	for _, kind := range []string{"and", "or"} {
		c := circuits.New("o")
		c.AddInput("x1").AddInput("x2")
		if kind == "and" {
			c.AddAnd("o", "x1", "x2")
		} else {
			c.AddOr("o", "x1", "x2")
		}
		for _, sigma := range []map[string]bool{
			{"x1": false, "x2": false},
			{"x1": true, "x2": false},
			{"x1": false, "x2": true},
			{"x1": true, "x2": true},
		} {
			db, err := FromMCVP(words.MustParse("RXRYRY"), c, sigma)
			if err != nil {
				t.Fatal(err)
			}
			want := c.Value(sigma)
			if got := fixpoint.Compile(words.MustParse("RXRYRY")).Solve(db).Certain; got != want {
				t.Errorf("%s gate, σ=%v: certain=%v want=%v", kind, sigma, got, want)
			}
		}
	}
}

func TestCNFHelpers(t *testing.T) {
	f := CNF{NumVars: 2, Clauses: [][]int{{1}, {-1, 2}}}
	if !f.Eval([]bool{false, true, true}) {
		t.Error("assignment x1=x2=true satisfies f")
	}
	if f.Eval([]bool{false, false, false}) {
		t.Error("all-false falsifies clause {1}")
	}
	if !f.Satisfiable() {
		t.Error("f is satisfiable")
	}
	unsat := CNF{NumVars: 1, Clauses: [][]int{{1}, {-1}}}
	if unsat.Satisfiable() {
		t.Error("x ∧ ¬x is unsatisfiable")
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b []byte
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	return string(b)
}
