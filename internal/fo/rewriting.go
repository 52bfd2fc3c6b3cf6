package fo

import (
	"fmt"

	"cqa/internal/instance"
	"cqa/internal/words"
)

// This file implements Section 6.2 of the paper.
//
// Lemma 12: for a nonempty path query q and constant c, the problem
// CERTAINTY(q[c]) — "does every repair have a path with trace exactly q
// starting at c" — is decided by the inductively constructed rewriting
//
//	ψ(x) = ∃y R(x,y) ∧ ∀z (R(x,z) → φ(z)).
//
// Lemma 13: if q satisfies C1, then ∃x ψ(x) is a consistent first-order
// rewriting for CERTAINTY(q).
//
// Reproduction note (documented in DESIGN.md): ψ is always SOUND
// (db ⊨ ψ(c) implies every repair has an exact-trace-q path from c), but
// as stated in Lemma 12 it is not complete for arbitrary q: a repair may
// complete the walk by cyclically REUSING its own choice in a block that
// ψ's ∀-unfolding quantifies over afresh. Counterexample (machine-checked
// in the tests): q = RRX, db = {R(a,b), R(b,a), R(c,a), R(c,c), X(b,b),
// X(c,a)} — every repair has an exact RRX-path from c (the repair
// choosing R(c,c) uses R(c,c) twice), yet ψ(c) is false. ψ IS exact for
// the word shapes on which the paper relies on it: self-join-free words
// (each block is visited at most once per position), periodic words
// s(uv)^k with uv self-join-free (revisits only weaken the requirement),
// and the top-level sentence ∃x ψ(x) for C1 queries (Lemma 13), all of
// which are differentially tested against exhaustive repair enumeration.

// RewriteCertainAt constructs the formula ψ(x) of Lemma 12 with free
// variable x, such that for every constant c, db ⊨ ψ(c) iff db is a
// yes-instance of CERTAINTY(q[c]).
func RewriteCertainAt(q words.Word, x string) Formula {
	if len(q) == 0 {
		return Truth{Value: true}
	}
	return rewriteFrom(q, 0, x, 1)
}

func rewriteFrom(q words.Word, i int, x string, depth int) Formula {
	if i == len(q) {
		return Truth{Value: true}
	}
	r := q[i]
	y := fmt.Sprintf("y%d", depth)
	z := fmt.Sprintf("z%d", depth)
	sub := rewriteFrom(q, i+1, z, depth+1)
	return And{Fs: []Formula{
		Exists{Var: y, F: Atom{Rel: r, S: Var(x), T: Var(y)}},
		Forall{Var: z, F: Implies{
			P: Atom{Rel: r, S: Var(x), T: Var(z)},
			Q: sub,
		}},
	}}
}

// RewriteCertain constructs the consistent first-order rewriting
// ∃x ψ(x) of Lemma 13. The sentence is a correct decision procedure for
// CERTAINTY(q) whenever q satisfies C1.
func RewriteCertain(q words.Word) Formula {
	if len(q) == 0 {
		return Truth{Value: true}
	}
	return Exists{Var: "x", F: RewriteCertainAt(q, "x")}
}

// CertainStarts computes, by the linear-time dynamic program that
// mirrors the Lemma 12 induction, the set of constants c with db ⊨ ψ(c):
//
//	cert_k(c)  = true for all c (empty suffix)
//	cert_i(c)  = block q[i](c,*) is nonempty ∧ every q[i](c,y) has cert_{i+1}(y)
//
// CertainStarts(db, q) = { c ∈ adom(db) | cert_0(c) }. This is the
// evaluation of ψ(x) from RewriteCertainAt in O(|q|·|db|) time. It is a
// sound under-approximation of the certain exact-trace starts, and exact
// for self-join-free and periodic q (see the package note on Lemma 12).
func CertainStarts(db *instance.Instance, q words.Word) map[string]bool {
	iv := db.Interned()
	bits := CertainStartsBits(iv, q)
	out := make(map[string]bool)
	for c := 0; c < iv.NumConsts(); c++ {
		if bits.Test(c) {
			out[iv.Const(int32(c))] = true
		}
	}
	return out
}

// CertainAt reports whether db ⊨ ψ(c) for the Lemma 12 rewriting ψ of
// q[c]; see the package note for the precise relationship with
// CERTAINTY(q[c]).
func CertainAt(db *instance.Instance, q words.Word, c string) bool {
	if len(q) == 0 {
		return true
	}
	return CertainStarts(db, q)[c]
}

// IsCertainFO decides CERTAINTY(q) using the Lemma 13 rewriting,
// evaluated as the interned Lemma 12 DP (CertainStartsBits). It is a
// correct decision procedure iff q satisfies C1; callers must check
// classification first (the cqa facade does).
func IsCertainFO(db *instance.Instance, q words.Word) bool {
	return len(q) == 0 || CertainStartsBits(db.Interned(), q).Count() > 0
}

// Terminal reports whether constant c is terminal for q in db
// (Definition 15): some consistent path with a proper-prefix trace of q
// starting at c cannot be right-extended to a consistent path with
// trace q. By Lemma 17 this holds iff db is a NO-instance of
// CERTAINTY(q[c]); it is computed here as ¬ψ(c), which is exact for the
// self-join-free and periodic words on which the NL tier invokes it
// (see the package note on Lemma 12).
func Terminal(db *instance.Instance, q words.Word, c string) bool {
	return !CertainAt(db, q, c)
}

// TerminalSet returns all constants of db that are terminal for q.
func TerminalSet(db *instance.Instance, q words.Word) map[string]bool {
	cert := CertainStarts(db, q)
	out := make(map[string]bool)
	for _, c := range db.Adom() {
		if !cert[c] {
			out[c] = true
		}
	}
	return out
}
