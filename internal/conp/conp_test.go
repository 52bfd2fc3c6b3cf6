package conp

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"cqa/internal/instance"
	"cqa/internal/repairs"
	"cqa/internal/words"
	"cqa/internal/workload"
)

func TestFigure2(t *testing.T) {
	db := instance.MustParseFacts("R(0,1) R(1,2) R(1,3) R(2,3) X(3,4)")
	res := IsCertain(db, words.MustParse("RRX"))
	if !res.Certain {
		t.Fatal("Figure 2 is a yes-instance of CERTAINTY(RRX)")
	}
	if res.Counterexample() != nil {
		t.Error("yes-instance must have no counterexample")
	}
}

func TestFigure3(t *testing.T) {
	db := instance.MustParseFacts("A(0,a) R(a,b) R(a,c) R(b,c) R(c,b) X(c,t)")
	q := words.MustParse("ARRX")
	res := IsCertain(db, q)
	if res.Certain {
		t.Fatal("Figure 3 is a no-instance of CERTAINTY(ARRX)")
	}
	cex := res.Counterexample()
	if cex == nil || !cex.IsRepairOf(db) {
		t.Fatalf("bad counterexample: %v", cex)
	}
	if cex.Satisfies(q) {
		t.Errorf("counterexample %s satisfies q", cex)
	}
}

func TestAgainstExhaustiveAllClasses(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	queries := []words.Word{
		words.MustParse("RXRX"),     // FO
		words.MustParse("RRX"),      // NL
		words.MustParse("RXRYRY"),   // PTIME
		words.MustParse("ARRX"),     // coNP
		words.MustParse("RXRXRYRY"), // coNP
		words.MustParse("RR"),       // FO
	}
	for it := 0; it < 300; it++ {
		db := instance.New()
		n := 1 + rng.Intn(9)
		for i := 0; i < n; i++ {
			rel := []string{"R", "X", "Y", "A"}[rng.Intn(4)]
			db.AddFact(rel, string(rune('a'+rng.Intn(4))), string(rune('a'+rng.Intn(4))))
		}
		for _, q := range queries {
			res := IsCertain(db, q)
			want := repairs.IsCertain(db, q)
			if res.Certain != want {
				t.Fatalf("it=%d db=%s q=%v: sat=%v exhaustive=%v", it, db, q, res.Certain, want)
			}
			if !res.Certain {
				cex := res.Counterexample()
				if cex == nil || !cex.IsRepairOf(db) || cex.Satisfies(q) {
					t.Fatalf("it=%d db=%s q=%v: invalid counterexample %v", it, db, q, cex)
				}
			}
		}
	}
}

func TestCyclicWalkCounterexampleHandling(t *testing.T) {
	// The instance of the Lemma 12 discrepancy: exact-trace walks that
	// reuse a chosen fact must be visible to the encoding (the z-chain
	// handles them because z[c,i] quantifies over positions, not facts).
	db := instance.MustParseFacts("R(a,b) R(b,a) R(c,a) R(c,c) X(b,b) X(c,a)")
	q := words.MustParse("RRX")
	res := IsCertain(db, q)
	want := repairs.IsCertain(db, q)
	if res.Certain != want {
		t.Fatalf("sat=%v exhaustive=%v", res.Certain, want)
	}
}

func TestEmptyQueryAndEmptyDB(t *testing.T) {
	if !IsCertain(instance.New(), words.MustParse("RRX")).Certain == false {
		t.Error("empty db is a no-instance for a nonempty query")
	}
	if !IsCertain(instance.MustParseFacts("R(a,b)"), words.Word{}).Certain {
		t.Error("empty query is certain")
	}
}

func TestEncodingSize(t *testing.T) {
	db := instance.MustParseFacts("R(0,1) R(1,2) R(1,3) R(2,3) X(3,4)")
	v, c := EncodingSize(db, words.MustParse("RRX"))
	if v == 0 || c == 0 {
		t.Error("expected nonzero encoding")
	}
	v0, c0 := EncodingSize(db, words.Word{})
	if v0 != 0 || c0 != 0 {
		t.Error("empty query encodes to nothing")
	}
	res := IsCertain(db, words.MustParse("RRX"))
	if res.Vars != v || res.Clauses != c {
		t.Errorf("size mismatch: (%d,%d) vs (%d,%d)", res.Vars, res.Clauses, v, c)
	}
}

func TestStatsPopulated(t *testing.T) {
	db := instance.MustParseFacts("A(0,a) R(a,b) R(a,c) R(b,c) R(c,b) X(c,t)")
	res := IsCertain(db, words.MustParse("ARRX"))
	if res.Propagations == 0 {
		t.Error("expected solver activity")
	}
}

// TestColdBuildAllocatesLessThanOnePerClause: encode emits every clause
// straight into the solver's clause slab, so a cold encode+solve
// allocates per slab or table growth and per watched literal, not per
// clause. A solver that kept each clause as its own heap object and
// literal slice made about 2.5 allocations per clause here.
func TestColdBuildAllocatesLessThanOnePerClause(t *testing.T) {
	db := workload.Random(workload.Config{
		Relations:    []string{"R", "X", "Y", "A"},
		Constants:    15000,
		Facts:        20000,
		ConflictRate: 0.05,
		Seed:         1,
	})
	iv := db.Interned()
	c := Compile(words.MustParse("ARRX"))
	clauses := 0
	allocs := testing.AllocsPerRun(1, func() {
		res, err := c.Solve(context.Background(), iv, c.Encode(iv), false)
		if err != nil {
			panic(err) // a background context never cancels
		}
		clauses = res.Clauses
	})
	if allocs >= float64(clauses) {
		t.Fatalf("cold encode+solve made %.0f allocations for %d problem clauses, want fewer than one per clause", allocs, clauses)
	}
}

// TestEncodingSizeLinearAMO: the at-most-one clause count must grow
// linearly (sequential ladder), not quadratically (pairwise), in the
// block size. The block lives under a relation absent from q, so the
// encoding is exactly one exactly-one constraint.
func TestEncodingSizeLinearAMO(t *testing.T) {
	q := words.MustParse("RRX")
	mk := func(m int) *instance.Instance {
		db := instance.New()
		for i := 0; i < m; i++ {
			db.AddFact("S", "k", fmt.Sprintf("v%03d", i))
		}
		return db
	}
	_, c40 := EncodingSize(mk(40), q)
	_, c80 := EncodingSize(mk(80), q)
	// Ladder: 3m-3 clauses (117 / 237). Pairwise would be 1+m(m-1)/2
	// (781 / 3161): both assertions below reject it.
	if float64(c80) > 2.3*float64(c40) {
		t.Errorf("at-most-one growth not linear: clauses(40)=%d clauses(80)=%d", c40, c80)
	}
	if c80 > 4*80 {
		t.Errorf("clauses(80) = %d, want <= %d (linear bound)", c80, 4*80)
	}
	// Doubling a block must also keep answers correct: exactly-one is
	// still enforced through the ladder.
	db := mk(7)
	db.AddFact("R", "k", "v000")
	if got := IsCertain(db, q).Certain; got {
		t.Error("no X facts: cannot be certain")
	}
}
