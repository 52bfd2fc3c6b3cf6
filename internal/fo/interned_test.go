package fo

import (
	"math/rand"
	"testing"

	"cqa/internal/instance"
	"cqa/internal/words"
)

// TestTerminalBitsetMatchesPsi: the interned Lemma 12 DP must agree
// bit-for-bit with ¬ψ(c), evaluated by the formula evaluator on the
// rewriting ψ of RewriteCertainAt, on random instances and words
// (including relations absent from the instance and the empty word).
func TestTerminalBitsetMatchesPsi(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	ws := []words.Word{
		{}, words.MustParse("R"), words.MustParse("RX"), words.MustParse("RRX"),
		words.MustParse("RXRYRY"), words.MustParse("A"), words.MustParse("RAX"),
	}
	for it := 0; it < 60; it++ {
		db := instance.New()
		n := 1 + rng.Intn(40)
		for i := 0; i < n; i++ {
			rel := []string{"R", "X", "Y"}[rng.Intn(3)]
			db.AddFact(rel, string(rune('a'+rng.Intn(6))), string(rune('a'+rng.Intn(6))))
		}
		iv := db.Interned()
		for _, q := range ws {
			psi := RewriteCertainAt(q, "x")
			bits := TerminalBitset(iv, q)
			for c := 0; c < iv.NumConsts(); c++ {
				got := bits[c>>6]&(1<<(uint(c)&63)) != 0
				want := !EvalWith(db, psi, map[string]string{"x": iv.Const(int32(c))})
				if got != want {
					t.Fatalf("q=%v db=%s: TerminalBitset(%s)=%v, ¬ψ=%v",
						q, db, iv.Const(int32(c)), got, want)
				}
			}
			// No bits may leak past the active domain.
			for i, w := range bits {
				for b := 0; b < 64; b++ {
					if i<<6|b >= iv.NumConsts() && w&(1<<uint(b)) != 0 {
						t.Fatalf("q=%v: bit %d set beyond NumConsts=%d", q, i<<6|b, iv.NumConsts())
					}
				}
			}
		}
	}
}
