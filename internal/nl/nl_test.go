package nl

import (
	"errors"
	"math/rand"
	"testing"

	"cqa/internal/classify"
	"cqa/internal/fixpoint"
	"cqa/internal/instance"
	"cqa/internal/regex"
	"cqa/internal/repairs"
	"cqa/internal/words"
)

func TestDecomposeRejectsNonC2(t *testing.T) {
	for _, qs := range []string{"RXRYRY", "ARRX", "RXRXRYRY"} {
		if _, err := Decompose(words.MustParse(qs)); !errors.Is(err, ErrNotC2) {
			t.Errorf("Decompose(%s): want ErrNotC2, got %v", qs, err)
		}
	}
}

func TestDecomposeShapes(t *testing.T) {
	d, err := Decompose(words.MustParse("RRX"))
	if err != nil {
		t.Fatalf("RRX: %v", err)
	}
	// L(NFAmin(RRX)) = RR(R)*X.
	if d.Loop.String() != "R" {
		t.Errorf("RRX loop = %v", d.Loop)
	}

	// RXRY: the certified language must be RX(RX)*RY (Example 3's
	// rewinding closure); the loop alignment may differ (RXR·(XR)*·Y
	// denotes the same language).
	d2, err := Decompose(words.MustParse("RXRY"))
	if err != nil {
		t.Fatalf("RXRY: %v", err)
	}
	if d2.Loop.Len() != 2 {
		t.Errorf("RXRY loop = %v (decomposition %v)", d2.Loop, d2)
	}
	want := regex.Seq(regex.Literal(words.MustParse("RX")),
		regex.Star{Body: regex.Literal(words.MustParse("RX"))},
		regex.Literal(words.MustParse("RY")))
	if !regex.ToDFA(d2.Language).Equal(regex.ToDFA(want)) {
		t.Errorf("RXRY language = %s, want RX(RX)*RY", d2.Language)
	}

	d3, err := Decompose(words.MustParse("RXY"))
	if err != nil || d3.Form != "sjf" {
		t.Errorf("RXY: %v, %v", d3, err)
	}
}

// allC2Queries enumerates the C2 (and not necessarily C1) queries over
// the alphabet up to maxLen.
func allC2Queries(alpha []string, maxLen int) []words.Word {
	var out []words.Word
	var rec func(cur words.Word)
	rec = func(cur words.Word) {
		if len(cur) > 0 {
			if ok, _ := classify.C2(cur); ok {
				out = append(out, cur.Clone())
			}
		}
		if len(cur) == maxLen {
			return
		}
		for _, a := range alpha {
			rec(append(cur, a))
		}
	}
	rec(words.Word{})
	return out
}

// TestAllC2QueriesDecompose verifies that every C2 query up to length 6
// over two symbols (and length 5 over three) admits a certified
// decomposition — i.e. the NL tier never needs the fallback on this
// exhaustively enumerated space.
func TestAllC2QueriesDecompose(t *testing.T) {
	fail := 0
	for _, q := range allC2Queries([]string{"R", "X"}, 6) {
		if _, err := Decompose(q); err != nil {
			t.Logf("no certified decomposition for %v: %v", q, err)
			fail++
		}
	}
	for _, q := range allC2Queries([]string{"R", "X", "Y"}, 5) {
		if _, err := Decompose(q); err != nil {
			t.Logf("no certified decomposition for %v: %v", q, err)
			fail++
		}
	}
	if fail > 0 {
		t.Errorf("%d C2 queries failed to decompose (see log)", fail)
	}
}

func randomInstance(rng *rand.Rand, alpha []string, maxFacts, domSize int) *instance.Instance {
	db := instance.New()
	n := 1 + rng.Intn(maxFacts)
	for i := 0; i < n; i++ {
		rel := alpha[rng.Intn(len(alpha))]
		db.AddFact(rel, string(rune('a'+rng.Intn(domSize))), string(rune('a'+rng.Intn(domSize))))
	}
	return db
}

// mustEvaluators compiles one evaluator per query, failing the test
// when a query has no certified decomposition.
func mustEvaluators(t *testing.T, queries []words.Word) []*Evaluator {
	t.Helper()
	evs := make([]*Evaluator, len(queries))
	for i, q := range queries {
		ev, err := NewEvaluator(q)
		if err != nil {
			t.Fatalf("q=%v: %v", q, err)
		}
		evs[i] = ev
	}
	return evs
}

// TestAgainstExhaustive differentially validates the NL solver against
// exhaustive repair enumeration on every C2 query up to length 5 over
// {R, X}.
func TestAgainstExhaustive(t *testing.T) {
	queries := allC2Queries([]string{"R", "X"}, 5)
	evs := mustEvaluators(t, queries)
	rng := rand.New(rand.NewSource(81))
	for it := 0; it < 150; it++ {
		db := randomInstance(rng, []string{"R", "X"}, 8, 4)
		for i, q := range queries {
			got := evs[i].IsCertain(db)
			want := repairs.IsCertain(db, q)
			if got != want {
				t.Fatalf("it=%d db=%s q=%v: nl=%v exhaustive=%v", it, db, q, got, want)
			}
		}
	}
}

// TestAgainstFixpoint runs the NL solver against the fixpoint tier on
// larger random instances (where exhaustive enumeration is infeasible),
// over a three-symbol alphabet.
func TestAgainstFixpoint(t *testing.T) {
	queries := allC2Queries([]string{"R", "X", "Y"}, 5)
	evs := mustEvaluators(t, queries)
	rng := rand.New(rand.NewSource(82))
	for it := 0; it < 60; it++ {
		db := randomInstance(rng, []string{"R", "X", "Y"}, 40, 8)
		for i, q := range queries {
			got := evs[i].IsCertain(db)
			want := fixpoint.Compile(q).Solve(db).Certain
			if got != want {
				t.Fatalf("it=%d db=%s q=%v: nl=%v fixpoint=%v", it, db, q, got, want)
			}
		}
	}
}

func TestFigure2ViaNL(t *testing.T) {
	db := instance.MustParseFacts("R(0,1) R(1,2) R(1,3) R(2,3) X(3,4)")
	ev := mustEvaluators(t, []words.Word{words.MustParse("RRX")})[0]
	if !ev.IsCertain(db) {
		t.Errorf("Figure 2 is a yes-instance (decomposition %v)", ev.Decomposition())
	}
}

func TestComputeOStructure(t *testing.T) {
	// On the Figure 2 instance with q = RRX, O must be false exactly at
	// the certain start 0.
	db := instance.MustParseFacts("R(0,1) R(1,2) R(1,3) R(2,3) X(3,4)")
	ev, err := NewEvaluator(words.MustParse("RRX"))
	if err != nil {
		t.Fatal(err)
	}
	iv := db.Interned()
	o := ev.Bind(iv, 1).o
	holds := func(c string) bool {
		id, ok := iv.ConstID(c)
		return ok && o.Test(int(id))
	}
	if holds("0") {
		t.Error("O(0) must be false: every repair has an RR(R)*X path from 0")
	}
	for _, c := range []string{"2", "3", "4"} {
		if !holds(c) {
			t.Errorf("O(%s) must be true", c)
		}
	}
}

func TestEmptyAndDegenerate(t *testing.T) {
	evs := mustEvaluators(t, []words.Word{{}, words.MustParse("RRX")})
	if !evs[0].IsCertain(instance.MustParseFacts("R(a,b)")) {
		t.Error("empty query is certain")
	}
	if evs[1].IsCertain(instance.New()) {
		t.Error("empty instance cannot certainly satisfy RRX")
	}
}

func TestDecompositionString(t *testing.T) {
	d, err := Decompose(words.MustParse("RRX"))
	if err != nil {
		t.Fatal(err)
	}
	if d.String() == "" {
		t.Error("empty decomposition string")
	}
}
