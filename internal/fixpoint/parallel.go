package fixpoint

import (
	"context"
	mathbits "math/bits"
	"sync/atomic"

	"cqa/internal/bitset"
	"cqa/internal/instance"
	"cqa/internal/par"
)

// ParallelStats counts uses of the partitioned path.
type ParallelStats struct {
	// Solves is the number of solves (or NL binding builds) that
	// engaged the partitioned path.
	Solves uint64 `json:"solves"`
	// Shards is the total number of constant-range shards those solves
	// dispatched across the worker pool.
	Shards uint64 `json:"shards"`
}

// Add returns the field-wise sum of s and t.
func (s ParallelStats) Add(t ParallelStats) ParallelStats {
	return ParallelStats{Solves: s.Solves + t.Solves, Shards: s.Shards + t.Shards}
}

// ParallelStats returns this compiled query's partitioned-path
// counters.
func (c *Compiled) ParallelStats() ParallelStats {
	return ParallelStats{Solves: c.parSolves.Load(), Shards: c.parShards.Load()}
}

// drainThreshold is the frontier size below which a parallel solve
// falls back to the single-core worklist drain: once a round derives
// only a few thousand pairs, per-round fork/merge overhead exceeds the
// scan work, and — crucially — deep derivation chains (whose frontiers
// are tiny) finish in one drain instead of one synchronized round per
// chain link.
const drainThreshold = 4096

// SolveBound runs the worklist over b, a binding of iv (from Bind or
// Rebind). With workers > 1 on a non-empty snapshot, initialization,
// the Iterative Rule frontier scan, and the result extraction are
// sharded by constant-id range across workers goroutines, with
// per-shard frontier accumulators merged word-wise per round; ctx is
// polled between rounds, so a mid-solve cancellation aborts without
// publishing a partial result (b itself is never written). Otherwise
// this is the single-core worklist.
func (cp *Compiled) SolveBound(ctx context.Context, iv *instance.Interned, b *Binding, workers int) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if len(cp.q) == 0 || workers <= 1 || iv.NumConsts() == 0 {
		return cp.solve(iv, b), nil
	}
	return cp.solveParallel(ctx, iv, b, workers)
}

// solveParallel is the partitioned worklist solver. Each round is a
// scan phase (every worker walks its constant range's slice of the
// frontier, decrementing pending counters atomically and deriving new
// pairs into a worker-local accumulator) followed by a merge phase
// (the locals are OR-folded word-wise into the relation N; bits not
// already in N become the next frontier). Constant ranges are cut at
// multiples of 64 constants, so the per-shard spans of every
// constant-indexed bitset are word-disjoint and initialization and
// extraction write without synchronization. Workers track the word
// interval they dirtied, so merges scan only words some worker (or the
// previous frontier) actually touched — a frontier that collapses to a
// narrow id range costs its width, not the whole vector.
func (cp *Compiled) solveParallel(ctx context.Context, iv *instance.Interned, b *Binding, workers int) (*Result, error) {
	n := len(cp.q)
	nc := iv.NumConsts()
	stride := n + 1
	bounds := par.Blocks(nc, workers, 64)
	nw := len(bounds) - 1
	cp.parSolves.Add(1)
	cp.parShards.Add(uint64(nw))

	res := &Result{Query: cp.q.Clone(), iv: iv, nq: n}

	nbits := nc * stride
	words := (nbits + 63) >> 6
	bits := bitset.New(nbits)
	frontier := bitset.New(nbits)
	pending := make([]int32, b.base[n])
	for v, pb := range b.pos {
		if pb != nil {
			copy(pending[b.base[v]:], pb.pendingInit)
		}
	}

	locals := make([]bitset.Bits, nw)
	for w := range locals {
		locals[w] = make(bitset.Bits, words)
	}
	dirtyLo := make([]int, nw)
	dirtyHi := make([]int, nw)
	newCount := make([]int, nw)
	newLo := make([]int, nw)
	newHi := make([]int, nw)

	// Initialization step: ⟨c, q⟩ for every c ∈ adom(db). Shard bit
	// spans are word-disjoint (64·stride ≡ 0 mod 64), so the direct
	// writes do not race.
	par.Run(nw, func(w int) {
		for c := bounds[w]; c < bounds[w+1]; c++ {
			idx := c*stride + n
			bits.Set(idx)
			frontier.Set(idx)
		}
	})
	count := nc
	glo, ghi := 0, words // word interval containing all frontier bits
	backSources := cp.backSources

	for count > 0 {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if count < drainThreshold {
			queue := make([]int32, 0, drainThreshold)
			frontier.ForEachIn(glo<<6, ghi<<6, func(idx int) { queue = append(queue, int32(idx)) })
			cp.drain(b, bits, pending, queue)
			break
		}
		// Scan phase.
		par.Run(nw, func(w int) {
			local := locals[w]
			dLo, dHi := words, 0
			add := func(idx int) {
				wi := idx >> 6
				local[wi] |= 1 << (uint(idx) & 63)
				if wi < dLo {
					dLo = wi
				}
				if wi >= dHi {
					dHi = wi + 1
				}
			}
			lo, hi := bounds[w]*stride, bounds[w+1]*stride
			if gl := glo << 6; lo < gl {
				lo = gl
			}
			if gh := ghi << 6; hi > gh {
				hi = gh
			}
			frontier.ForEachIn(lo, hi, func(idx int) {
				u := idx % stride
				if u == 0 {
					return
				}
				v := u - 1
				pb := b.pos[v]
				if pb == nil {
					return
				}
				c := idx / stride
				vbase := b.base[v]
				for _, ls := range pb.refList[pb.refStart[c]:pb.refStart[c+1]] {
					bs := vbase + ls
					// Values of one block may span several shards, so the
					// counter is shared; it reaches 0 exactly once, firing
					// the derivation in exactly one worker.
					if atomic.AddInt32(&pending[bs], -1) == 0 {
						base := int(pb.blockKey[ls]) * stride
						add(base + v)
						for _, bw := range backSources[v] {
							add(base + bw)
						}
					}
				}
			})
			dirtyLo[w], dirtyHi[w] = dLo, dHi
		})
		// Merge phase over the union of the dirty intervals plus the old
		// frontier interval (whose words must be cleared even if no
		// worker rewrote them).
		mlo, mhi := glo, ghi
		for w := 0; w < nw; w++ {
			if dirtyLo[w] < dirtyHi[w] {
				if dirtyLo[w] < mlo {
					mlo = dirtyLo[w]
				}
				if dirtyHi[w] > mhi {
					mhi = dirtyHi[w]
				}
			}
		}
		mb := par.Blocks(mhi-mlo, nw, 1)
		mw := len(mb) - 1
		par.Run(mw, func(w int) {
			cnt := 0
			fLo, fHi := mhi, mlo
			for wi := mlo + mb[w]; wi < mlo+mb[w+1]; wi++ {
				var acc uint64
				for k := 0; k < nw; k++ {
					acc |= locals[k][wi]
					locals[k][wi] = 0
				}
				fresh := acc &^ bits[wi]
				bits[wi] |= fresh
				frontier[wi] = fresh
				if fresh != 0 {
					cnt += mathbits.OnesCount64(fresh)
					if wi < fLo {
						fLo = wi
					}
					fHi = wi + 1
				}
			}
			newCount[w], newLo[w], newHi[w] = cnt, fLo, fHi
		})
		count = 0
		glo, ghi = words, 0
		for w := 0; w < mw; w++ {
			count += newCount[w]
			if newCount[w] > 0 {
				if newLo[w] < glo {
					glo = newLo[w]
				}
				if newHi[w] > ghi {
					ghi = newHi[w]
				}
			}
		}
	}

	// Extraction, sharded like initialization (word-disjoint startBits
	// spans); per-shard start lists concatenate in shard order, so
	// Starts is ascending like the sequential path's.
	res.bits = bits
	res.startBits = bitset.New(nc)
	parts := make([][]string, nw)
	par.Run(nw, func(w int) {
		var out []string
		for c := bounds[w]; c < bounds[w+1]; c++ {
			if bits.Test(c * stride) {
				res.startBits.Set(c)
				out = append(out, iv.Const(int32(c)))
			}
		}
		parts[w] = out
	})
	for _, p := range parts {
		res.Starts = append(res.Starts, p...)
	}
	res.Certain = len(res.Starts) > 0
	return res, nil
}
