// Package words implements the combinatorics-of-words machinery that
// underlies the classification of path queries in Koutris, Ouyang and
// Wijsen, "Consistent Query Answering for Primary Keys on Path Queries"
// (PODS 2021).
//
// A path query is represented as a word over the alphabet of relation
// names (Section 2 of the paper). This package provides the word
// calculus used throughout: prefix/suffix/factor tests, the rewinding
// operator (Section 1), episodes (Definition 19), and self-join-freeness.
package words

import (
	"fmt"
	"sort"
	"strings"
)

// Word is a word over the alphabet of relation names. Each element is one
// relation name (symbol). The zero value is the empty word ε.
type Word []string

// Parse parses a textual word. Two syntaxes are accepted:
//
//   - compact: "RXRRR" — a sequence of symbols, each an uppercase letter
//     followed by any run of digits or lowercase letters ("R1XR2" parses
//     as R1·X·R2);
//   - separated: symbols split by spaces, dots or commas ("R X R Y",
//     "TW.IT.TER"), allowing arbitrary symbol names.
func Parse(s string) (Word, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return Word{}, nil
	}
	if strings.ContainsAny(s, " .,") {
		fields := strings.FieldsFunc(s, func(r rune) bool {
			return r == ' ' || r == '.' || r == ','
		})
		w := make(Word, 0, len(fields))
		for _, f := range fields {
			if f == "" {
				continue
			}
			w = append(w, f)
		}
		return w, nil
	}
	var w Word
	runes := []rune(s)
	for i := 0; i < len(runes); {
		r := runes[i]
		if r < 'A' || r > 'Z' {
			return nil, fmt.Errorf("words: symbol must start with an uppercase letter at position %d in %q", i, s)
		}
		j := i + 1
		for j < len(runes) && (runes[j] >= '0' && runes[j] <= '9' || runes[j] >= 'a' && runes[j] <= 'z') {
			j++
		}
		w = append(w, string(runes[i:j]))
		i = j
	}
	return w, nil
}

// MustParse is Parse that panics on error; intended for tests and
// compile-time-constant words.
func MustParse(s string) Word {
	w, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return w
}

// String renders the word. Single-rune symbols are rendered compactly
// ("RRX"); otherwise symbols are dot-separated ("R1.X.R2"). The empty
// word renders as "ε".
func (w Word) String() string {
	if len(w) == 0 {
		return "ε"
	}
	compact := true
	for _, s := range w {
		if len(s) != 1 {
			compact = false
			break
		}
	}
	if compact {
		return strings.Join(w, "")
	}
	return strings.Join(w, ".")
}

// Key returns an injective encoding of w for map keys: its symbols
// joined by ".". No symbol that Parse accepts contains ".", so two
// parsed words have equal keys exactly when they are equal. String is
// for display only: it drops the separators when every symbol is one
// character, so "Ab" (one symbol) and "A b" (two) both render as "Ab".
func (w Word) Key() string { return strings.Join(w, ".") }

// Len returns the length (number of symbols) of w.
func (w Word) Len() int { return len(w) }

// IsEmpty reports whether w is the empty word ε.
func (w Word) IsEmpty() bool { return len(w) == 0 }

// Equal reports whether w and v are the same word.
func (w Word) Equal(v Word) bool {
	if len(w) != len(v) {
		return false
	}
	for i := range w {
		if w[i] != v[i] {
			return false
		}
	}
	return true
}

// Clone returns an independent copy of w.
func (w Word) Clone() Word {
	if w == nil {
		return nil
	}
	return append(Word(nil), w...)
}

// Concat returns the concatenation of the given words as a fresh word.
func Concat(parts ...Word) Word {
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	out := make(Word, 0, n)
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// Repeat returns w repeated k times; k == 0 yields ε.
func Repeat(w Word, k int) Word {
	out := make(Word, 0, len(w)*k)
	for i := 0; i < k; i++ {
		out = append(out, w...)
	}
	return out
}

// HasPrefix reports whether p is a prefix of w (ε is a prefix of
// everything).
func (w Word) HasPrefix(p Word) bool {
	if len(p) > len(w) {
		return false
	}
	for i := range p {
		if w[i] != p[i] {
			return false
		}
	}
	return true
}

// HasSuffix reports whether s is a suffix of w.
func (w Word) HasSuffix(s Word) bool {
	if len(s) > len(w) {
		return false
	}
	off := len(w) - len(s)
	for i := range s {
		if w[off+i] != s[i] {
			return false
		}
	}
	return true
}

// IndexFactor returns the least offset at which f occurs as a factor
// (contiguous subword) of w, or -1 if f is not a factor of w. The empty
// word is a factor of every word at offset 0.
func (w Word) IndexFactor(f Word) int {
	if len(f) > len(w) {
		return -1
	}
outer:
	for off := 0; off+len(f) <= len(w); off++ {
		for i := range f {
			if w[off+i] != f[i] {
				continue outer
			}
		}
		return off
	}
	return -1
}

// HasFactor reports whether f occurs as a factor of w.
func (w Word) HasFactor(f Word) bool { return w.IndexFactor(f) >= 0 }

// First returns the first symbol of w; it panics on the empty word.
func (w Word) First() string { return w[0] }

// Last returns the last symbol of w; it panics on the empty word.
func (w Word) Last() string { return w[len(w)-1] }

// Prefix returns the length-n prefix of w.
func (w Word) Prefix(n int) Word { return w[:n] }

// Suffix returns the suffix of w starting at offset n.
func (w Word) Suffix(n int) Word { return w[n:] }

// Factor returns w[i:j].
func (w Word) Factor(i, j int) Word { return w[i:j] }

// Symbols returns the set of symbols occurring in w, sorted.
func (w Word) Symbols() []string {
	seen := make(map[string]bool, len(w))
	var out []string
	for _, s := range w {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	sort.Strings(out)
	return out
}

// IsSelfJoinFree reports whether no symbol occurs twice in w.
func (w Word) IsSelfJoinFree() bool {
	seen := make(map[string]bool, len(w))
	for _, s := range w {
		if seen[s] {
			return false
		}
		seen[s] = true
	}
	return true
}

// Occurrences returns the positions (ascending) at which symbol r occurs
// in w.
func (w Word) Occurrences(r string) []int {
	var out []int
	for i, s := range w {
		if s == r {
			out = append(out, i)
		}
	}
	return out
}

// SelfJoinPairs returns all position pairs (i, j), i < j, with
// w[i] == w[j]. Each pair is a decomposition w = u·R·v·R·x with
// u = w[:i], v = w[i+1:j], x = w[j+1:] to which the rewinding operator
// applies.
func (w Word) SelfJoinPairs() [][2]int {
	bySym := make(map[string][]int)
	for i, s := range w {
		bySym[s] = append(bySym[s], i)
	}
	var out [][2]int
	for _, occ := range bySym {
		for a := 0; a < len(occ); a++ {
			for b := a + 1; b < len(occ); b++ {
				out = append(out, [2]int{occ[a], occ[b]})
			}
		}
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a][0] != out[b][0] {
			return out[a][0] < out[b][0]
		}
		return out[a][1] < out[b][1]
	})
	return out
}

// Rewind applies one rewinding step at the self-join pair (i, j): for
// w = u·R·v·R·x (R = w[i] = w[j]) it returns u·R·v·R·v·R·x. It panics if
// w[i] != w[j] or i >= j.
func (w Word) Rewind(i, j int) Word {
	if i >= j || w[i] != w[j] {
		panic(fmt.Sprintf("words: invalid rewind pair (%d, %d) on %v", i, j, w))
	}
	// uRvRvRx = w[:j+1] + w[i+1:j+1] + w[j+1:].
	out := make(Word, 0, len(w)+(j-i))
	out = append(out, w[:j+1]...)
	out = append(out, w[i+1:j+1]...)
	out = append(out, w[j+1:]...)
	return out
}

// Rewinds returns all words obtainable from w by a single rewinding step,
// de-duplicated, in deterministic order.
func (w Word) Rewinds() []Word {
	var out []Word
	seen := make(map[string]bool)
	for _, p := range w.SelfJoinPairs() {
		r := w.Rewind(p[0], p[1])
		k := r.Key()
		if !seen[k] {
			seen[k] = true
			out = append(out, r)
		}
	}
	return out
}

// RewindClosure enumerates the members of L↬(w) (Definition 4: the
// smallest language containing w and closed under rewinding) of length at
// most maxLen, in order of discovery (BFS). w itself is always included
// (if |w| <= maxLen).
func (w Word) RewindClosure(maxLen int) []Word {
	var out []Word
	seen := map[string]bool{}
	queue := []Word{w}
	if len(w) <= maxLen {
		seen[w.Key()] = true
	} else {
		return nil
	}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		out = append(out, cur)
		for _, nxt := range cur.Rewinds() {
			if len(nxt) > maxLen {
				continue
			}
			k := nxt.Key()
			if !seen[k] {
				seen[k] = true
				queue = append(queue, nxt)
			}
		}
	}
	return out
}

// Episode is a factor of a word of the form R·u·R where R does not occur
// in u (Definition 19 of the paper). I and J are the positions of the two
// R's, so the episode is w[I:J+1].
type Episode struct {
	I, J int
}

// Episodes returns all episodes of w: factors RuR such that R ∉ u.
// Equivalently, all pairs of *consecutive* occurrences of each symbol.
func (w Word) Episodes() []Episode {
	bySym := make(map[string][]int)
	for i, s := range w {
		bySym[s] = append(bySym[s], i)
	}
	var out []Episode
	for _, occ := range bySym {
		for a := 0; a+1 < len(occ); a++ {
			out = append(out, Episode{I: occ[a], J: occ[a+1]})
		}
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].I != out[b].I {
			return out[a].I < out[b].I
		}
		return out[a].J < out[b].J
	})
	return out
}

// IsRightRepeating reports whether the episode e = R·u·R of w is
// right-repeating (Definition 19): writing w = ℓ·RuR·r, the tail r is a
// prefix of (uR)^|r|.
func (w Word) IsRightRepeating(e Episode) bool {
	u := w[e.I+1 : e.J]
	r := w[e.J+1:]
	period := Concat(u, Word{w[e.J]})
	return Word(r).isPrefixOfPower(period)
}

// IsLeftRepeating reports whether the episode e = R·u·R of w is
// left-repeating: writing w = ℓ·RuR·r, the head ℓ is a suffix of
// (Ru)^|ℓ|.
func (w Word) IsLeftRepeating(e Episode) bool {
	u := w[e.I+1 : e.J]
	l := w[:e.I]
	period := Concat(Word{w[e.I]}, u)
	return Word(l).isSuffixOfPower(period)
}

// isPrefixOfPower reports whether w is a prefix of period^k for some k
// (equivalently, of period^|w|). An empty period admits only ε.
func (w Word) isPrefixOfPower(period Word) bool {
	if len(w) == 0 {
		return true
	}
	if len(period) == 0 {
		return false
	}
	for i := range w {
		if w[i] != period[i%len(period)] {
			return false
		}
	}
	return true
}

// isSuffixOfPower reports whether w is a suffix of period^k for some k.
func (w Word) isSuffixOfPower(period Word) bool {
	if len(w) == 0 {
		return true
	}
	if len(period) == 0 {
		return false
	}
	n, m := len(w), len(period)
	for i := 0; i < n; i++ {
		// Align the last symbol of w with the last symbol of period.
		if w[n-1-i] != period[(m-1-i%m+m)%m] {
			return false
		}
	}
	return true
}
