package workload

import (
	"testing"

	"cqa/internal/fixpoint"
	"cqa/internal/repairs"
	"cqa/internal/words"
)

func TestRandomDeterministic(t *testing.T) {
	cfg := Config{Relations: []string{"R", "X"}, Constants: 10, Facts: 50, ConflictRate: 0.4, Seed: 1}
	a := Random(cfg)
	b := Random(cfg)
	if !a.Equal(b) {
		t.Error("same seed must give the same instance")
	}
	if a.Size() == 0 || a.Size() > 50 {
		t.Errorf("size = %d", a.Size())
	}
	cfg.Seed = 2
	if Random(cfg).Equal(a) {
		t.Error("different seeds should differ")
	}
}

func TestRandomConflictRate(t *testing.T) {
	frac := func(rate float64) float64 {
		db := Random(Config{Relations: []string{"R"}, Constants: 200, Facts: 100, ConflictRate: rate, Seed: 3})
		return float64(len(db.ConflictingBlocks())) / float64(len(db.Blocks()))
	}
	if frac(0.9) <= frac(0) {
		t.Errorf("conflict rate not effective: frac(0)=%v frac(0.9)=%v", frac(0), frac(0.9))
	}
}

func TestRandomEmptyConfig(t *testing.T) {
	if Random(Config{}).Size() != 0 {
		t.Error("empty config must give empty instance")
	}
}

func TestChainIsYesInstance(t *testing.T) {
	q := words.MustParse("RRX")
	db := Chain(q, 3)
	if !db.IsConsistent() {
		t.Error("chain must be consistent")
	}
	if !repairs.IsCertain(db, q) {
		t.Error("chain is a yes-instance")
	}
}

func TestFigure2Family(t *testing.T) {
	q := words.MustParse("RRX")
	for _, n := range []int{1, 3, 8} {
		db := Figure2Family(n)
		if db.IsConsistent() {
			t.Errorf("n=%d: family must be inconsistent", n)
		}
		if !fixpoint.Compile(q).Solve(db).Certain {
			t.Errorf("n=%d: Figure 2 family must be a yes-instance", n)
		}
	}
}

func TestFigure3Family(t *testing.T) {
	q := words.MustParse("ARRX")
	db := Figure3Family(4)
	if repairs.IsCertain(db, q) {
		t.Error("Figure 3 family must be a no-instance")
	}
}
