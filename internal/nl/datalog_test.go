package nl

import (
	"math/rand"
	"testing"

	"cqa/internal/fo"
	"cqa/internal/instance"
	"cqa/internal/words"
)

func TestGeneratedProgramIsLinearAndStratified(t *testing.T) {
	for _, qs := range []string{"RRX", "RXRY", "RR", "RXY", "YYRR"} {
		d, err := Decompose(words.MustParse(qs))
		if err != nil {
			t.Fatalf("%s: %v", qs, err)
		}
		prog, err := GenerateProgram(d)
		if err != nil {
			t.Fatalf("%s: %v", qs, err)
		}
		if _, err := prog.Stratify(); err != nil {
			t.Errorf("%s: generated program not stratifiable: %v", qs, err)
		}
		if ok, why := prog.IsLinear(); !ok {
			t.Errorf("%s: generated program not linear: %s\n%s", qs, why, prog)
		}
	}
}

func TestDatalogAgreesWithDirectSolver(t *testing.T) {
	queries := []words.Word{
		words.MustParse("RRX"), words.MustParse("RXRY"), words.MustParse("RR"),
		words.MustParse("RXY"), words.MustParse("YYRR"), words.MustParse("RRRX"),
		words.MustParse("XRX"),
	}
	evs := mustEvaluators(t, queries)
	rng := rand.New(rand.NewSource(91))
	for it := 0; it < 80; it++ {
		db := randomInstance(rng, []string{"R", "X", "Y"}, 10, 4)
		for i, q := range queries {
			gotDL, _, err := IsCertainDatalog(db, q)
			if err != nil {
				t.Fatalf("q=%v: %v", q, err)
			}
			gotDirect := evs[i].IsCertain(db)
			if gotDL != gotDirect {
				t.Fatalf("it=%d db=%s q=%v: datalog=%v direct=%v", it, db, q, gotDL, gotDirect)
			}
		}
	}
}

func TestDatalogTerminalMatchesFO(t *testing.T) {
	// The generated terminal_<tag> predicate must agree with
	// fo.TerminalBitset (the Lemma 12 DP).
	rng := rand.New(rand.NewSource(92))
	for it := 0; it < 40; it++ {
		db := randomInstance(rng, []string{"R", "X"}, 8, 4)
		for _, w := range []words.Word{words.MustParse("RX"), words.MustParse("RR"), words.MustParse("X")} {
			d := &Decomposition{Form: "exact", Pre: w, Loop: words.Word{}, Exit: words.Word{}}
			prog, err := GenerateProgram(d)
			if err != nil {
				t.Fatal(err)
			}
			out, err := prog.Eval(BuildEDB(db))
			if err != nil {
				t.Fatal(err)
			}
			iv := db.Interned()
			want := fo.TerminalBitset(iv, w)
			for _, c := range db.Adom() {
				id, _ := iv.ConstID(c)
				if out.Contains("terminal_whole", c) != want.Test(int(id)) {
					t.Fatalf("it=%d db=%s w=%v c=%s: datalog=%v fo=%v",
						it, db, w, c, out.Contains("terminal_whole", c), want.Test(int(id)))
				}
			}
		}
	}
}

func TestFigure2ViaDatalog(t *testing.T) {
	db := instance.MustParseFacts("R(0,1) R(1,2) R(1,3) R(2,3) X(3,4)")
	got, prog, err := IsCertainDatalog(db, words.MustParse("RRX"))
	if err != nil {
		t.Fatal(err)
	}
	if !got {
		t.Errorf("Figure 2 is a yes-instance; program:\n%s", prog)
	}
}

func TestEmptyQueryDatalog(t *testing.T) {
	got, _, err := IsCertainDatalog(instance.MustParseFacts("R(a,b)"), words.Word{})
	if err != nil || !got {
		t.Error("empty query is certain")
	}
}
