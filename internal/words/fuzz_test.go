package words

import (
	"strings"
	"testing"
)

// FuzzParse parses two arbitrary inputs. Parse must never panic, and
// when both inputs parse, their keys must be equal exactly when the
// words are, with no symbol empty or holding a separator (space, dot or
// comma). The seeds include the pairs whose display strings collide.
func FuzzParse(f *testing.F) {
	for _, seed := range [][2]string{
		{"Ab", "A b"}, // one relation Ab; A then b: both render "Ab"
		{"AB,", "AB"}, // one relation AB; A then B: both render "AB"
		{"RRX", "R R X"},
		{"R1XR2", "R1.X.R2"},
		{"TW.IT.TER", "TW IT,TER"},
		{"", " . "},
		{"rx", "R,,X"},
	} {
		f.Add(seed[0], seed[1])
	}
	f.Fuzz(func(t *testing.T, a, b string) {
		wa, errA := Parse(a)
		wb, errB := Parse(b)
		if errA != nil || errB != nil {
			return
		}
		for _, w := range []Word{wa, wb} {
			for _, sym := range w {
				if sym == "" || strings.ContainsAny(sym, " .,") {
					t.Fatalf("Parse yielded symbol %q in %q", sym, []string(w))
				}
			}
		}
		if (wa.Key() == wb.Key()) != wa.Equal(wb) {
			t.Fatalf("Parse(%q) = %q and Parse(%q) = %q: keys %q and %q disagree with Equal",
				a, []string(wa), b, []string(wb), wa.Key(), wb.Key())
		}
	})
}
