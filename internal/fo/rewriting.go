package fo

import (
	"fmt"

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
// Reproduction note: ψ is always SOUND (db ⊨ ψ(c) implies every repair
// has an exact-trace-q path from c), but as stated in Lemma 12 it is not
// complete for arbitrary q: a repair may complete the walk by cyclically
// REUSING its own choice in a block that ψ's ∀-unfolding quantifies over
// afresh. Counterexample (machine-checked by TestLemma12Incompleteness):
// q = RRX, db = {R(a,b), R(b,a), R(c,a), R(c,c), X(b,b),
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
