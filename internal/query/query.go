// Package query defines Boolean path queries (Section 2 of the paper):
// conjunctive queries of the form
//
//	q = { R1(x1, x2), R2(x2, x3), ..., Rk(xk, xk+1) }
//
// with distinct variables x1..xk+1 and not-necessarily-distinct relation
// names R1..Rk. A path query is losslessly represented by the word
// R1 R2 ... Rk over the alphabet of relation names; this package is the
// bridge between that word view (internal/words) and the atom view used
// by evaluators and the generic conjunctive-query machinery.
package query

import (
	"fmt"
	"strings"

	"cqa/internal/words"
)

// Path is a Boolean path query, stored as its word of relation names.
// The zero value is the empty query (trivially true).
type Path struct {
	word words.Word
}

// New builds a path query from a word of relation names.
func New(w words.Word) Path { return Path{word: w.Clone()} }

// Parse parses a path query from its word syntax (see words.Parse).
func Parse(s string) (Path, error) {
	w, err := words.Parse(s)
	if err != nil {
		return Path{}, fmt.Errorf("query: %w", err)
	}
	return Path{word: w}, nil
}

// MustParse is Parse that panics on error.
func MustParse(s string) Path {
	q, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return q
}

// Word returns the word of relation names of q (a copy).
func (q Path) Word() words.Word { return q.word.Clone() }

// Len returns the number of atoms of q.
func (q Path) Len() int { return len(q.word) }

// IsEmpty reports whether q has no atoms.
func (q Path) IsEmpty() bool { return len(q.word) == 0 }

// Rel returns the relation name of the i-th atom (0-based).
func (q Path) Rel(i int) string { return q.word[i] }

// HasSelfJoin reports whether some relation name occurs more than once.
func (q Path) HasSelfJoin() bool { return !q.word.IsSelfJoinFree() }

// Relations returns the sorted set of relation names occurring in q.
func (q Path) Relations() []string { return q.word.Symbols() }

// Equal reports whether q and p are the same query.
func (q Path) Equal(p Path) bool { return q.word.Equal(p.word) }

// String renders q in word syntax ("RRX").
func (q Path) String() string { return q.word.String() }

// Key is an injective encoding of q for map keys (see words.Word.Key);
// String is not injective.
func (q Path) Key() string { return q.word.Key() }

// Atoms renders q in logical atom syntax:
// "R(x1,x2), R(x2,x3), X(x3,x4)".
func (q Path) Atoms() string {
	if q.IsEmpty() {
		return "⊤"
	}
	var b strings.Builder
	for i, r := range q.word {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s(x%d,x%d)", r, i+1, i+2)
	}
	return b.String()
}

// Sentence renders q as the first-order sentence it represents.
func (q Path) Sentence() string {
	if q.IsEmpty() {
		return "true"
	}
	var b strings.Builder
	for i := 1; i <= q.Len()+1; i++ {
		fmt.Fprintf(&b, "∃x%d", i)
	}
	b.WriteString("(")
	for i, r := range q.word {
		if i > 0 {
			b.WriteString(" ∧ ")
		}
		fmt.Fprintf(&b, "%s(x%d,x%d)", r, i+1, i+2)
	}
	b.WriteString(")")
	return b.String()
}

// Suffix returns the path query made of the atoms from position i on.
func (q Path) Suffix(i int) Path { return Path{word: q.word.Suffix(i).Clone()} }

// Prefix returns the path query made of the first n atoms.
func (q Path) Prefix(n int) Path { return Path{word: q.word.Prefix(n).Clone()} }
