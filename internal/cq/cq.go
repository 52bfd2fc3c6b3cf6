// Package cq implements generic Boolean conjunctive queries over binary
// relations and homomorphism (satisfaction) testing. Path queries are a
// special case; this package additionally covers cyclic queries such as
// q1 = ∃x∃y(R(x,y) ∧ R(y,x)) from Example 1 of the paper, and is used as
// an independent cross-check of the path-specific matchers.
package cq

import (
	"fmt"
	"sort"
	"strings"

	"cqa/internal/instance"
	"cqa/internal/words"
)

// Term is a variable or a constant in an atom.
type Term struct {
	Name  string
	Const bool
}

// Var returns a variable term.
func Var(name string) Term { return Term{Name: name} }

// Const returns a constant term.
func Const(name string) Term { return Term{Name: name, Const: true} }

// String renders the term; constants are quoted with ' '.
func (t Term) String() string {
	if t.Const {
		return "'" + t.Name + "'"
	}
	return t.Name
}

// Atom is an atom R(s, t) over a binary relation R.
type Atom struct {
	Rel  string
	S, T Term
}

// String renders the atom.
func (a Atom) String() string { return fmt.Sprintf("%s(%s,%s)", a.Rel, a.S, a.T) }

// Query is a Boolean conjunctive query: a finite set of atoms, all
// variables existentially quantified.
type Query struct {
	Atoms []Atom
}

// New returns a query with the given atoms.
func New(atoms ...Atom) Query { return Query{Atoms: atoms} }

// FromPath converts a path-query word to its conjunctive-query form
// { R1(x1,x2), ..., Rk(xk,xk+1) }.
func FromPath(w words.Word) Query {
	q := Query{Atoms: make([]Atom, len(w))}
	for i, r := range w {
		q.Atoms[i] = Atom{Rel: r, S: Var(fmt.Sprintf("x%d", i+1)), T: Var(fmt.Sprintf("x%d", i+2))}
	}
	return q
}

// Vars returns the sorted set of variables of q.
func (q Query) Vars() []string {
	seen := map[string]bool{}
	var out []string
	add := func(t Term) {
		if !t.Const && !seen[t.Name] {
			seen[t.Name] = true
			out = append(out, t.Name)
		}
	}
	for _, a := range q.Atoms {
		add(a.S)
		add(a.T)
	}
	sort.Strings(out)
	return out
}

// IsSelfJoinFree reports whether no relation name occurs twice in q.
func (q Query) IsSelfJoinFree() bool {
	seen := map[string]bool{}
	for _, a := range q.Atoms {
		if seen[a.Rel] {
			return false
		}
		seen[a.Rel] = true
	}
	return true
}

// String renders q as an atom list.
func (q Query) String() string {
	parts := make([]string, len(q.Atoms))
	for i, a := range q.Atoms {
		parts[i] = a.String()
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// Satisfied reports whether db |= q, i.e. whether there is a valuation θ
// of the variables with θ(q) ⊆ db. Backtracking search with
// most-constrained-atom ordering; queries are small.
func Satisfied(db *instance.Instance, q Query) bool {
	return FindValuation(db, q) != nil
}

// FindValuation returns a satisfying valuation of q on db, or nil.
func FindValuation(db *instance.Instance, q Query) map[string]string {
	env := make(map[string]string)
	remaining := append([]Atom(nil), q.Atoms...)
	if match(db, db.Facts(), remaining, env) {
		return env
	}
	return nil
}

func match(db *instance.Instance, facts []instance.Fact, atoms []Atom, env map[string]string) bool {
	if len(atoms) == 0 {
		return true
	}
	// Pick the most-bound atom to expand next.
	best, bestScore := 0, -1
	for i, a := range atoms {
		score := 0
		if _, ok := bind(env, a.S); ok {
			score += 2 // bound key is most selective
		}
		if _, ok := bind(env, a.T); ok {
			score++
		}
		if score > bestScore {
			best, bestScore = i, score
		}
	}
	a := atoms[best]
	rest := make([]Atom, 0, len(atoms)-1)
	rest = append(rest, atoms[:best]...)
	rest = append(rest, atoms[best+1:]...)

	try := func(key, val string) bool {
		_, sOld := env[termVar(a.S)]
		_, tOld := env[termVar(a.T)]
		if !assign(env, a.S, key) {
			return false
		}
		if !assign(env, a.T, val) {
			// roll back S if we newly bound it
			if !a.S.Const && !sOld {
				delete(env, a.S.Name)
			}
			return false
		}
		if match(db, facts, rest, env) {
			return true
		}
		if !a.S.Const && !sOld {
			delete(env, a.S.Name)
		}
		if !a.T.Const && !tOld {
			delete(env, a.T.Name)
		}
		return false
	}

	if key, ok := bind(env, a.S); ok {
		for _, val := range db.Block(a.Rel, key) {
			if try(key, val) {
				return true
			}
		}
		return false
	}
	// Key unbound: scan all facts of the relation.
	for _, f := range facts {
		if f.Rel != a.Rel {
			continue
		}
		if try(f.Key, f.Val) {
			return true
		}
	}
	return false
}

func termVar(t Term) string {
	if t.Const {
		return ""
	}
	return t.Name
}

// bind resolves t under env; ok is false when t is an unbound variable.
func bind(env map[string]string, t Term) (string, bool) {
	if t.Const {
		return t.Name, true
	}
	v, ok := env[t.Name]
	return v, ok
}

// assign unifies t with constant c under env; it reports success and may
// extend env.
func assign(env map[string]string, t Term, c string) bool {
	if t.Const {
		return t.Name == c
	}
	if v, ok := env[t.Name]; ok {
		return v == c
	}
	env[t.Name] = c
	return true
}

// IsCertain decides CERTAINTY(q) for a generic conjunctive query by
// exhaustive repair enumeration. Ground truth for small instances.
func IsCertain(db *instance.Instance, q Query) bool {
	certain := true
	forEachRepair(db, func(r *instance.Instance) bool {
		if !Satisfied(r, q) {
			certain = false
			return false
		}
		return true
	})
	return certain
}

// forEachRepair is a local repair enumerator (kept here to avoid an
// import cycle with internal/repairs, which depends on nothing of ours;
// duplication is two dozen lines and keeps package layering flat).
func forEachRepair(db *instance.Instance, visit func(*instance.Instance) bool) {
	blocks := db.Blocks()
	var rec func(i int, r *instance.Instance) bool
	rec = func(i int, r *instance.Instance) bool {
		if i == len(blocks) {
			return visit(r)
		}
		id := blocks[i]
		for _, v := range db.Block(id.Rel, id.Key) {
			f := instance.Fact{Rel: id.Rel, Key: id.Key, Val: v}
			r.Add(f)
			if !rec(i+1, r) {
				return false
			}
			r.Remove(f)
		}
		return true
	}
	rec(0, instance.New())
}
