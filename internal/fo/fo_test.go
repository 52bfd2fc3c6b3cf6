package fo

import (
	"math/rand"
	"strings"
	"testing"

	"cqa/internal/bitset"
	"cqa/internal/instance"
	"cqa/internal/repairs"
	"cqa/internal/words"
)

func TestEvalBasics(t *testing.T) {
	db := instance.MustParseFacts("R(a,b) R(b,c)")
	// ∃x ∃y R(x,y)
	f := Exists{"x", Exists{"y", Atom{"R", Var("x"), Var("y")}}}
	if !Eval(db, f) {
		t.Error("∃x∃y R(x,y) should hold")
	}
	// ∀x ∃y R(x,y) fails (c has no successor).
	g := Forall{"x", Exists{"y", Atom{"R", Var("x"), Var("y")}}}
	if Eval(db, g) {
		t.Error("∀x∃y R(x,y) should fail")
	}
	// Constants and equality.
	h := Exists{"y", And{[]Formula{
		Atom{"R", Const("a"), Var("y")},
		Not{Eq{Var("y"), Const("c")}},
	}}}
	if !Eval(db, h) {
		t.Error("∃y (R(a,y) ∧ y≠c) should hold via y=b")
	}
	if !Eval(db, Or{[]Formula{Truth{false}, Truth{true}}}) {
		t.Error("false ∨ true")
	}
	if Eval(db, Or{nil}) || !Eval(db, And{nil}) {
		t.Error("empty or/and")
	}
	if !Eval(db, Implies{Truth{false}, Truth{false}}) {
		t.Error("false → false is true")
	}
}

func TestFormulaStrings(t *testing.T) {
	// The paper's φ for q1 = RR (Section 1):
	// ∃x(∃y R(x,y) ∧ ∀y(R(x,y) → ∃z R(y,z))).
	f := Exists{"x", And{[]Formula{
		Exists{"y", Atom{"R", Var("x"), Var("y")}},
		Forall{"y", Implies{Atom{"R", Var("x"), Var("y")}, Exists{"z", Atom{"R", Var("y"), Var("z")}}}},
	}}}
	s := f.String()
	for _, want := range []string{"∃x", "∀y", "R(x,y)", "→", "∃z"} {
		if !strings.Contains(s, want) {
			t.Errorf("formula string missing %q: %s", want, s)
		}
	}
	if (Eq{Var("x"), Const("c")}).String() != "x = 'c'" {
		t.Error("Eq string")
	}
	if (Truth{true}).String() != "true" || (Truth{false}).String() != "false" {
		t.Error("Truth string")
	}
	if (Not{Truth{true}}).String() != "¬true" {
		t.Error("Not string")
	}
}

func TestUnboundVariablePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on unbound variable")
		}
	}()
	Eval(instance.New(), Atom{"R", Var("x"), Var("y")})
}

// certainDP decides CERTAINTY(q) as the plan's FO tier does: the
// Lemma 12 DP that evaluates the Lemma 13 rewriting leaves some certain
// start. It decides correctly iff q satisfies C1.
func certainDP(db *instance.Instance, q words.Word) bool {
	return len(q) == 0 || CertainStartsBits(db.Interned(), q).Count() > 0
}

func TestRewriteRRisSection1Formula(t *testing.T) {
	// For q = RR satisfying C1, the DP must agree with exhaustive
	// repair checking; the paper gives the rewriting φ explicitly.
	q := words.MustParse("RR")
	yes := instance.MustParseFacts("R(a,b) R(b,c)")
	if !certainDP(yes, q) || !repairs.IsCertain(yes, q) {
		t.Error("chain of two R-edges certainly satisfies RR")
	}
	no := instance.MustParseFacts("R(a,b) R(a,c) R(b,x)")
	// Repair {R(a,c), R(b,x)} has no RR path.
	if certainDP(no, q) != repairs.IsCertain(no, q) {
		t.Error("FO and exhaustive disagree")
	}
	// Constructed formula evaluates identically.
	f := RewriteCertain(q)
	for _, db := range []*instance.Instance{yes, no} {
		if Eval(db, f) != certainDP(db, q) {
			t.Errorf("AST evaluation and DP disagree on %s", db)
		}
	}
}

func TestCertainAtExample4(t *testing.T) {
	// Figure 2 instance: no constant certainly starts an exact RRX
	// path, although the instance is a yes-instance of CERTAINTY(RRX).
	db := instance.MustParseFacts("R(0,1) R(1,2) R(1,3) R(2,3) X(3,4)")
	q := words.MustParse("RRX")
	starts := certainStarts(db, q)
	if len(starts) != 0 {
		t.Errorf("CertainStartsBits = %v, want empty", starts)
	}
	if EvalWith(db, RewriteCertainAt(q, "x"), map[string]string{"x": "0"}) {
		t.Error("0 is not a certain exact-RRX start")
	}
}

// certainStarts names the constants whose CertainStartsBits bit is set,
// for comparison with the exhaustive repairs.CertainStarts.
func certainStarts(db *instance.Instance, q words.Word) map[string]bool {
	iv := db.Interned()
	return constNames(iv, CertainStartsBits(iv, q))
}

// constNames lists the constants of iv whose bit is set in bits.
func constNames(iv *instance.Interned, bits bitset.Bits) map[string]bool {
	out := make(map[string]bool)
	for c := 0; c < iv.NumConsts(); c++ {
		if bits.Test(c) {
			out[iv.Const(int32(c))] = true
		}
	}
	return out
}

// TestCertainStartsExactOnNLShapes: ψ is exact for the word shapes on
// which the paper relies on Lemma 12 — self-join-free words and periodic
// words s(uv)^k with uv self-join-free (the pieces handled by the NL
// tier's terminal tests).
func TestCertainStartsExactOnNLShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	queries := []words.Word{
		// self-join-free
		words.MustParse("R"), words.MustParse("RX"), words.MustParse("RXY"),
		// periodic s(uv)^k
		words.MustParse("RR"), words.MustParse("RRR"), words.MustParse("XRR"),
		words.MustParse("RXRX"), words.MustParse("XRX"), words.MustParse("XRXRX"),
	}
	for it := 0; it < 250; it++ {
		db := instance.New()
		n := 1 + rng.Intn(7)
		for i := 0; i < n; i++ {
			rel := []string{"R", "X"}[rng.Intn(2)]
			db.AddFact(rel, string(rune('a'+rng.Intn(3))), string(rune('a'+rng.Intn(3))))
		}
		for _, q := range queries {
			got := certainStarts(db, q)
			want := repairs.CertainStarts(db, q)
			if len(got) != len(want) {
				t.Fatalf("it=%d db=%s q=%v: DP=%v exhaustive=%v", it, db, q, got, want)
			}
			for c := range want {
				if !got[c] {
					t.Fatalf("it=%d db=%s q=%v: DP=%v exhaustive=%v", it, db, q, got, want)
				}
			}
		}
	}
}

// TestCertainStartsSound: for arbitrary words, ψ(c) implies that every
// repair has an exact-trace path from c (soundness of the Lemma 12
// rewriting).
func TestCertainStartsSound(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	queries := []words.Word{
		words.MustParse("RRX"), words.MustParse("RXR"), words.MustParse("RXRR"),
		words.MustParse("XRRX"),
	}
	for it := 0; it < 250; it++ {
		db := instance.New()
		n := 1 + rng.Intn(7)
		for i := 0; i < n; i++ {
			rel := []string{"R", "X"}[rng.Intn(2)]
			db.AddFact(rel, string(rune('a'+rng.Intn(3))), string(rune('a'+rng.Intn(3))))
		}
		for _, q := range queries {
			got := certainStarts(db, q)
			want := repairs.CertainStarts(db, q)
			for c := range got {
				if !want[c] {
					t.Fatalf("it=%d db=%s q=%v: ψ unsound at %s", it, db, q, c)
				}
			}
		}
	}
}

// TestLemma12Incompleteness is the machine-checked record of the
// reproduction finding noted in rewriting.go: the Lemma 12 rewriting ψ
// is not complete for CERTAINTY(q[c]) on arbitrary path queries. On this
// instance every repair has an exact RRX-path starting at c (the repair
// that chooses R(c,c) realizes it by reusing the fact R(c,c) twice), yet
// ψ(c) is false because the ∀-unfolding requantifies over the block
// R(c,*).
func TestLemma12Incompleteness(t *testing.T) {
	db := instance.MustParseFacts("R(a,b) R(b,a) R(c,a) R(c,c) X(b,b) X(c,a)")
	q := words.MustParse("RRX")
	exact := repairs.CertainStarts(db, q)
	if !exact["c"] {
		t.Fatal("setup: c must be a certain exact-RRX start")
	}
	if certainStarts(db, q)["c"] {
		t.Fatal("ψ(c) is expected to be false on this instance; if this " +
			"fails the Lemma 12 discrepancy no longer reproduces")
	}
}

func TestRewriteASTAgreesWithDP(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	queries := []words.Word{words.MustParse("R"), words.MustParse("RR"), words.MustParse("RX")}
	for it := 0; it < 60; it++ {
		db := instance.New()
		n := 1 + rng.Intn(6)
		for i := 0; i < n; i++ {
			rel := []string{"R", "X"}[rng.Intn(2)]
			db.AddFact(rel, string(rune('a'+rng.Intn(3))), string(rune('a'+rng.Intn(3))))
		}
		for _, q := range queries {
			if got, want := Eval(db, RewriteCertain(q)), certainDP(db, q); got != want {
				t.Fatalf("it=%d db=%s q=%v: AST=%v DP=%v", it, db, q, got, want)
			}
		}
	}
}

func TestTerminalExample7(t *testing.T) {
	// Example 7: db = {R(c,d), S(d,c), R(c,e), T(e,f)}; c is terminal
	// for RSRT in db.
	db := instance.MustParseFacts("R(c,d) S(d,c) R(c,e) T(e,f)")
	q := words.MustParse("RSRT")
	iv := db.Interned()
	terminal := constNames(iv, TerminalBitset(iv, q))
	if !terminal["c"] {
		t.Error("c must be terminal for RSRT")
	}
	// Lemma 17: terminal iff NO-instance of CERTAINTY(q[c]); verify
	// against the exhaustive certain-start computation.
	want := repairs.CertainStarts(db, q)
	for _, c := range db.Adom() {
		if terminal[c] == want[c] {
			t.Errorf("terminal(%s) inconsistent with exhaustive", c)
		}
	}
}

func TestTerminalSet(t *testing.T) {
	db := instance.MustParseFacts("R(a,b) X(b,z)")
	q := words.MustParse("RX")
	iv := db.Interned()
	ts := constNames(iv, TerminalBitset(iv, q))
	// a certainly starts RX, so a is not terminal; b and z are.
	if ts["a"] || !ts["b"] || !ts["z"] {
		t.Errorf("TerminalBitset = %v", ts)
	}
}

func TestEmptyQuery(t *testing.T) {
	db := instance.MustParseFacts("R(a,b)")
	psi := RewriteCertainAt(words.Word{}, "x")
	if !certainDP(db, words.Word{}) || !EvalWith(db, psi, map[string]string{"x": "zzz"}) {
		t.Error("empty query is certain everywhere")
	}
	if iv := db.Interned(); CertainStartsBits(iv, words.Word{}).Count() != iv.NumConsts() {
		t.Error("empty query is certain at every constant of the active domain")
	}
	if !Eval(db, RewriteCertain(words.Word{})) {
		t.Error("rewriting of empty query is true")
	}
}
