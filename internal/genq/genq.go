// Package genq implements Section 8 of the paper: generalized path
// queries, in which constants may appear at atom junctions
// (Definition 16), the characteristic prefix char(q), the extended query
// ext(q) (Definition 22), the conditions D1, D2, D3 (homomorphism-based
// analogues of C1, C2, C3), the classification Theorems 4 and 5, and the
// constant-elimination reductions (Lemmas 25–29) that solve
// CERTAINTY(q) for generalized queries via the constant-free machinery.
package genq

import (
	"fmt"
	"strings"

	"cqa/internal/classify"
	"cqa/internal/fo"
	"cqa/internal/instance"
	"cqa/internal/words"
)

// Query is a generalized path query
//
//	{ R1(s1,s2), R2(s2,s3), ..., Rk(sk,sk+1) }
//
// where each junction s_i is a variable or a constant; per Definition 16
// a constant may occur at most twice, at a non-primary-key position and
// the immediately following primary-key position — which is captured by
// storing one optional constant per junction.
type Query struct {
	Rels []string // relation names R1..Rk
	// Consts[i] is the constant at junction i (0..k), or "" for a
	// variable junction. Junction i sits between atom i-1 and atom i.
	Consts []string
}

// Parse parses the atom syntax "R(x,y) S(y,0) T(0,1) R(1,w)": junctions
// shared between adjacent atoms must match; lowercase identifiers are
// variables, everything else (digits, quoted) is a constant.
func Parse(s string) (*Query, error) {
	tokens := strings.Fields(strings.ReplaceAll(s, ",", " , "))
	_ = tokens
	// Simpler dedicated scan: split on whitespace into atoms.
	var rels []string
	var junctions []string
	atoms := strings.Fields(s)
	for ai, tok := range atoms {
		open := strings.IndexByte(tok, '(')
		if open <= 0 || !strings.HasSuffix(tok, ")") {
			return nil, fmt.Errorf("genq: bad atom %q", tok)
		}
		rel := tok[:open]
		inner := strings.Split(tok[open+1:len(tok)-1], ",")
		if len(inner) != 2 || inner[0] == "" || inner[1] == "" {
			return nil, fmt.Errorf("genq: bad atom %q", tok)
		}
		if ai == 0 {
			junctions = append(junctions, inner[0])
		} else if junctions[len(junctions)-1] != inner[0] {
			return nil, fmt.Errorf("genq: junction mismatch: %q vs %q", junctions[len(junctions)-1], inner[0])
		}
		junctions = append(junctions, inner[1])
		rels = append(rels, rel)
	}
	q := &Query{Rels: rels, Consts: make([]string, len(junctions))}
	seen := map[string]int{}
	for i, j := range junctions {
		if isConstant(j) {
			q.Consts[i] = strings.Trim(j, "'")
			seen[q.Consts[i]]++
		}
	}
	for c, n := range seen {
		if n > 1 {
			return nil, fmt.Errorf("genq: constant %q occurs at %d junctions; Definition 16 allows one", c, n)
		}
	}
	return q, nil
}

// MustParse is Parse that panics on error.
func MustParse(s string) *Query {
	q, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return q
}

func isConstant(s string) bool {
	r := rune(s[0])
	return r >= '0' && r <= '9' || r == '\''
}

// FromWord lifts a constant-free path query to a generalized one.
func FromWord(w words.Word) *Query {
	return &Query{Rels: append([]string(nil), w...), Consts: make([]string, len(w)+1)}
}

// Len returns the number of atoms.
func (q *Query) Len() int { return len(q.Rels) }

// Word returns the underlying word of relation names.
func (q *Query) Word() words.Word { return words.Word(append([]string(nil), q.Rels...)) }

// HasConstants reports whether any junction carries a constant.
func (q *Query) HasConstants() bool {
	for _, c := range q.Consts {
		if c != "" {
			return true
		}
	}
	return false
}

// String renders the query in atom syntax.
func (q *Query) String() string {
	if q.Len() == 0 {
		return "⊤"
	}
	junction := func(i int) string {
		if q.Consts[i] != "" {
			return q.Consts[i]
		}
		return fmt.Sprintf("x%d", i+1)
	}
	var parts []string
	for i, r := range q.Rels {
		parts = append(parts, fmt.Sprintf("%s(%s,%s)", r, junction(i), junction(i+1)))
	}
	return strings.Join(parts, " ")
}

// Satisfies reports whether the generalized path query holds on db
// (used with consistent instances, i.e. repairs): there is a walk whose
// trace matches the relation names and whose junctions match the
// constants. Dynamic program from the end of the query.
func (q *Query) Satisfies(db *instance.Instance) bool {
	if q.Len() == 0 {
		return true
	}
	allowed := func(i int, c string) bool { return q.Consts[i] == "" || q.Consts[i] == c }
	cur := map[string]bool{}
	for _, c := range db.Adom() {
		if allowed(q.Len(), c) {
			cur[c] = true
		}
	}
	blocks := db.Blocks()
	for i := q.Len() - 1; i >= 0; i-- {
		next := map[string]bool{}
		for _, id := range blocks {
			if id.Rel != q.Rels[i] || !allowed(i, id.Key) {
				continue
			}
			for _, v := range db.Block(id.Rel, id.Key) {
				if cur[v] {
					next[id.Key] = true
					break
				}
			}
		}
		cur = next
	}
	return len(cur) > 0
}

// CharPrefix returns char(q) (Definition 16): the longest prefix whose
// junctions s1..sℓ are all variables (the junction after the prefix may
// be a constant), together with the constant that terminates it ("" when
// char(q) = q ends with a variable, i.e. the paper's γ = ⊤).
func (q *Query) CharPrefix() (*Query, string) {
	l := 0
	for l < q.Len() && q.Consts[l] == "" {
		l++
	}
	// char(q) = atoms 0..l-1; terminating junction l may be constant.
	ch := &Query{Rels: append([]string(nil), q.Rels[:l]...), Consts: make([]string, l+1)}
	gamma := ""
	if l <= q.Len() {
		gamma = q.Consts[l]
	}
	ch.Consts[l] = gamma
	return ch, gamma
}

// Rest returns q minus its characteristic prefix (the part handled by
// Lemma 27, which is always in FO).
func (q *Query) Rest() *Query {
	l := 0
	for l < q.Len() && q.Consts[l] == "" {
		l++
	}
	return &Query{Rels: append([]string(nil), q.Rels[l:]...), Consts: append([]string(nil), q.Consts[l:]...)}
}

// Ext returns ext(q) (Definition 22): char(q) with its terminating
// constant (if any) replaced by a fresh variable followed by a fresh
// relation name N not occurring in q. For constant-free q, ext(q) = q.
func (q *Query) Ext() words.Word {
	ch, gamma := q.CharPrefix()
	w := ch.Word()
	if gamma == "" && ch.Len() == q.Len() {
		return w
	}
	// Pick a fresh relation name.
	fresh := "N"
	used := map[string]bool{}
	for _, r := range q.Rels {
		used[r] = true
	}
	for i := 0; used[fresh]; i++ {
		fresh = fmt.Sprintf("N%d", i)
	}
	return append(w, fresh)
}

// homomorphism reports whether there is a homomorphism (Definition 18)
// from generalized path query a to generalized path query b, i.e. a
// variable substitution (identity on constants) mapping a's atom chain
// into b's; prefix requires θ(s1) = t1.
func homomorphism(a, b *Query, prefix bool) bool {
	// a must map onto a contiguous sub-chain of b with matching relation
	// names and compatible constants.
	n, m := a.Len(), b.Len()
	if n > m {
		return false
	}
	for off := 0; off+n <= m; off++ {
		if prefix && off != 0 {
			break
		}
		ok := true
		for i := 0; i < n && ok; i++ {
			if a.Rels[i] != b.Rels[off+i] {
				ok = false
			}
		}
		// Junction compatibility: a constant at a junction of a must
		// equal the corresponding junction of b (variables of a can map
		// to anything; but b's constants are fine to map onto).
		for i := 0; i <= n && ok; i++ {
			if a.Consts[i] != "" && a.Consts[i] != b.Consts[off+i] {
				ok = false
			}
		}
		if ok {
			return true
		}
	}
	return false
}

// charAsPumped builds [[u·Rv·Rv·Rw, γ]] for the pair decomposition (i, j)
// of the characteristic word, carrying the terminating constant.
func charPumped(w words.Word, gamma string, i, j int) *Query {
	p := w.Rewind(i, j)
	q := &Query{Rels: p, Consts: make([]string, len(p)+1)}
	q.Consts[len(p)] = gamma
	return q
}

func charQuery(w words.Word, gamma string) *Query {
	q := &Query{Rels: append(words.Word(nil), w...), Consts: make([]string, len(w)+1)}
	q.Consts[len(w)] = gamma
	return q
}

// D1 checks condition D1: whenever char(q) = [[uRvRw, γ]], there is a
// prefix homomorphism from char(q) to [[uRvRvRw, γ]].
func D1(q *Query) bool {
	ch, gamma := q.CharPrefix()
	w := ch.Word()
	for _, p := range w.SelfJoinPairs() {
		if !homomorphism(charQuery(w, gamma), charPumped(w, gamma, p[0], p[1]), true) {
			return false
		}
	}
	return true
}

// D3 checks condition D3: whenever char(q) = [[uRvRw, γ]], there is a
// homomorphism from char(q) to [[uRvRvRw, γ]].
func D3(q *Query) bool {
	ch, gamma := q.CharPrefix()
	w := ch.Word()
	for _, p := range w.SelfJoinPairs() {
		if !homomorphism(charQuery(w, gamma), charPumped(w, gamma, p[0], p[1]), false) {
			return false
		}
	}
	return true
}

// D2 checks condition D2: D3's homomorphism condition plus, for
// consecutive occurrences char(q) = [[uRv1Rv2Rw, γ]], v1 = v2 or a
// prefix homomorphism from [[Rw, γ]] to [[Rv1, γ]].
func D2(q *Query) bool {
	if !D3(q) {
		return false
	}
	ch, gamma := q.CharPrefix()
	w := ch.Word()
	for _, sym := range w.Symbols() {
		occ := w.Occurrences(sym)
		for t := 0; t+2 < len(occ); t++ {
			i, j, k := occ[t], occ[t+1], occ[t+2]
			v1 := w.Factor(i+1, j)
			v2 := w.Factor(j+1, k)
			if v1.Equal(v2) {
				continue
			}
			// Prefix homomorphism from [[Rw, γ]] to [[Rv1, γ]].
			rw := charQuery(words.Word(w.Suffix(k)), gamma)
			rv1 := charQuery(words.Word(w.Factor(i, j)), gamma)
			if homomorphism(rw, rv1, true) {
				continue
			}
			return false
		}
	}
	return true
}

// Classify returns the complexity class of CERTAINTY(q) per Theorem 4
// (which degenerates to Theorem 3 for constant-free queries). By
// Theorem 5, queries with at least one constant never land in
// PTIME-complete: D3 implies D2 for them (Lemma 30).
func Classify(q *Query) classify.Class {
	if !q.HasConstants() {
		return classify.Classify(q.Word())
	}
	switch {
	case D1(q):
		return classify.FO
	case D2(q):
		return classify.NL
	case D3(q):
		// Lemma 30: for queries with a constant, D3 implies D2, so this
		// case is unreachable; guard anyway.
		return classify.NL
	default:
		return classify.CoNP
	}
}

// IsCertain decides CERTAINTY(q) for a generalized path query by the
// Lemma 25–29 decomposition: q splits into char(q) (reduced to the
// constant-free ext(q) via the N-fact construction of Lemma 26) and the
// remainder (each constant-anchored segment solved in FO via Lemma 27),
// with the variable-disjoint conjunction handled by Lemma 25. The
// solve callback decides constant-free CERTAINTY for ext(q) instances
// (callers pass the dispatching solver of the root package; tests pass
// individual tiers).
func IsCertain(db *instance.Instance, q *Query, solve func(*instance.Instance, words.Word) bool) bool {
	// Lemma 25/27: the part after the characteristic prefix splits at
	// constants into segments [[w, c_start, maybe c_end]], each in FO.
	if !restCertain(db, q.Rest()) {
		return false
	}
	ch, gamma := q.CharPrefix()
	if ch.Len() == 0 {
		return true // char(q) empty: everything handled above
	}
	if gamma == "" {
		return solve(db, ch.Word())
	}
	// Lemma 26: db is a yes-instance of CERTAINTY(char(q)) iff
	// db ∪ {N(γ, d)} is a yes-instance of CERTAINTY(ext(q)).
	ext := q.Ext()
	freshRel := ext[len(ext)-1]
	db2 := db.Clone()
	db2.AddFact(freshRel, gamma, "⊥d")
	return solve(db2, ext)
}

// restCertain decides the FO part (Lemma 27): segments of q anchored at
// starting constants. For each segment [[w, c]] starting at constant c,
// every repair must have an exact w-trace path from c; segments ending
// at a constant e additionally append a fresh N-relation fact per
// Lemma 26.
func restCertain(db *instance.Instance, rest *Query) bool {
	if rest.Len() == 0 {
		return true
	}
	// Split rest at internal constant junctions.
	start := 0
	for start < rest.Len() {
		end := start + 1
		for end < rest.Len() && rest.Consts[end] == "" {
			end++
		}
		c := rest.Consts[start]
		w := words.Word(rest.Rels[start:end])
		endConst := rest.Consts[end]
		if c == "" {
			// The first segment of rest always starts at a constant by
			// construction (char(q) swallowed the variable prefix).
			return false
		}
		segDB, seg := db, w
		if endConst != "" {
			// Lemma 26: append a fresh relation fact N(endConst, d).
			fresh := "Nrest"
			segDB = db.Clone()
			segDB.AddFact(fresh, endConst, "⊥d")
			seg = append(w.Clone(), fresh)
		}
		// segDB ⊨ ψ(c) for the Lemma 12 rewriting ψ of seg: true for the
		// empty word, false for a constant outside the active domain.
		if len(seg) > 0 {
			iv := segDB.Interned()
			id, ok := iv.ConstID(c)
			if !ok || !fo.CertainStartsBits(iv, seg).Test(int(id)) {
				return false
			}
		}
		start = end
	}
	return true
}
