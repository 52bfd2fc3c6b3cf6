package fo

import (
	"cqa/internal/bitset"
	"cqa/internal/instance"
	"cqa/internal/par"
	"cqa/internal/words"
)

// Interned evaluation of the Lemma 12 dynamic program: the cert_i sets
// are bitsets over interned constant ids and the per-position pass
// walks the interned block lists, so the DP does no string hashing and
// allocates only the two frontier bitsets. This is the form the NL tier
// calls at its leaves (terminal tests for the pre and loop words).

// CertainStartsBits evaluates, by the linear-time dynamic program that
// mirrors the Lemma 12 induction,
//
//	cert_k(c)  = true for all c (empty suffix)
//	cert_i(c)  = block q[i](c,*) is nonempty ∧ every q[i](c,y) has cert_{i+1}(y)
//
// on the interned view of an instance: bit c of the result is set iff
// cert_0(c), i.e. iff db ⊨ ψ(c) for the rewriting ψ of q
// (RewriteCertainAt), in O(|q|·|db|) time. It is a sound
// under-approximation of the certain exact-trace starts, and exact for
// self-join-free and periodic q (see the package note on Lemma 12).
// Bits at and beyond NumConsts are zero.
func CertainStartsBits(iv *instance.Interned, q words.Word) bitset.Bits {
	return CertainStartsBitsPar(iv, q, 1)
}

// parBlockFloor is the relation size below which a DP pass stays
// sequential even when workers are available: sharding a few thousand
// blocks costs more in fork/join than the scan itself.
const parBlockFloor = 2048

// CertainStartsBitsPar is CertainStartsBits with each per-position
// block scan sharded across workers. Shard boundaries are advanced so
// no two shards write the same word of the frontier bitset (block keys
// ascend within a relation), making the direct next.Set writes
// race-free; the result is bit-identical to the sequential DP.
func CertainStartsBitsPar(iv *instance.Interned, q words.Word, workers int) bitset.Bits {
	nc := iv.NumConsts()
	cur := bitset.New(nc)
	for i := range cur {
		cur[i] = ^uint64(0)
	}
	cur.MaskTail(nc)
	next := bitset.New(nc)
	for i := len(q) - 1; i >= 0; i-- {
		next.Clear()
		if rid, ok := iv.RelID(q[i]); ok {
			blocks := iv.RelBlocks(rid)
			scan := func(blocks []instance.InternedBlock) {
				for _, bl := range blocks {
					all := true
					for _, y := range bl.Vals {
						if !cur.Test(int(y)) {
							all = false
							break
						}
					}
					if all {
						next.Set(int(bl.Key))
					}
				}
			}
			if workers <= 1 || len(blocks) < parBlockFloor {
				scan(blocks)
			} else {
				bounds := blockRanges(blocks, workers)
				par.Run(len(bounds)-1, func(w int) {
					scan(blocks[bounds[w]:bounds[w+1]])
				})
			}
		}
		cur, next = next, cur
	}
	return cur
}

// blockRanges cuts a relation's block list into per-worker index
// ranges whose key-id spans do not share a 64-bit bitset word: each
// boundary advances past blocks whose Key>>6 equals its predecessor's.
func blockRanges(blocks []instance.InternedBlock, workers int) []int {
	bounds := par.Blocks(len(blocks), workers, 1)
	for i := 1; i < len(bounds)-1; i++ {
		b := bounds[i]
		if b < bounds[i-1] {
			b = bounds[i-1]
		}
		for b > 0 && b < len(blocks) && blocks[b].Key>>6 == blocks[b-1].Key>>6 {
			b++
		}
		bounds[i] = b
	}
	return bounds
}

// TerminalBitset returns the constants of the interned view that are
// terminal for q (Definition 15): c is terminal iff some consistent
// path with a proper-prefix trace of q starting at c cannot be
// right-extended to a consistent path with trace q. By Lemma 17 this
// holds iff db is a no-instance of CERTAINTY(q[c]), computed here as
// ¬ψ(c): the complement of CertainStartsBits over the active domain.
// That is exact for the self-join-free and periodic words on which the
// NL tier invokes it (see the package note on Lemma 12).
func TerminalBitset(iv *instance.Interned, q words.Word) bitset.Bits {
	return TerminalBitsetPar(iv, q, 1)
}

// TerminalBitsetPar is TerminalBitset over the sharded DP.
func TerminalBitsetPar(iv *instance.Interned, q words.Word, workers int) bitset.Bits {
	out := CertainStartsBitsPar(iv, q, workers)
	out.NotFrom(out, iv.NumConsts())
	return out
}
