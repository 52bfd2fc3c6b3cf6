package fixpoint

import (
	"context"
	mathbits "math/bits"
	"sync/atomic"

	"cqa/internal/bitset"
	"cqa/internal/instance"
	"cqa/internal/par"
)

// SolveOptions tunes one solve call's intra-query parallelism. The
// zero value keeps the single-core path: the partitioned solver
// engages only when Workers > 1 and the instance holds at least
// Threshold facts (so a Threshold of 0 forces it on any non-empty
// instance — the equivalence tests use that to exercise the parallel
// path on small inputs).
type SolveOptions struct {
	// Workers is the shard/worker count for the partitioned passes.
	Workers int
	// Threshold is the minimum NumFacts at which Workers engages.
	Threshold int
}

// Engaged reports whether opts selects the partitioned path for iv.
func (o SolveOptions) Engaged(iv *instance.Interned) bool {
	return o.Workers > 1 && iv.NumFacts() >= o.Threshold && iv.NumConsts() > 0
}

// WorkersFor is the worker count opts engages on iv: Workers when it
// engages, 1 otherwise.
func (o SolveOptions) WorkersFor(iv *instance.Interned) int {
	if o.Engaged(iv) {
		return o.Workers
	}
	return 1
}

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
// falls back to the sequential worklist drain: once a round derives
// only a few thousand pairs, per-round fork/merge overhead exceeds the
// scan work, and — crucially — deep derivation chains (whose frontiers
// are tiny) finish in one drain instead of one synchronized round per
// chain link.
const drainThreshold = 4096

// SolveInternedCtx is SolveInterned with cancellation and parallelism:
// it binds iv from scratch and solves with SolveBound.
func (cp *Compiled) SolveInternedCtx(ctx context.Context, iv *instance.Interned, opts SolveOptions) (*Result, error) {
	return cp.SolveBound(ctx, iv, cp.Bind(iv, opts), opts)
}

// SolveBound runs the worklist over b, a binding of iv (from Bind or
// Rebind). When opts engages (see SolveOptions), initialization, the
// Iterative Rule frontier scan, and the result extraction are sharded
// by constant-id range across a worker pool, with per-shard frontier
// accumulators merged word-wise per round; ctx is polled between
// rounds, so a mid-solve cancellation aborts without publishing a
// partial result (b itself is never written). When opts does not
// engage, this is the single-core worklist.
func (cp *Compiled) SolveBound(ctx context.Context, iv *instance.Interned, b *Binding, opts SolveOptions) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if len(cp.q) == 0 || !opts.Engaged(iv) {
		return cp.solve(iv, b), nil
	}
	return cp.solveParallel(ctx, iv, b, opts.Workers)
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
			cp.drainSequential(b, bits, frontier, pending, glo, ghi)
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

// drainSequential finishes a parallel solve with the standard
// sequential worklist once the frontier is small: the remaining
// frontier bits seed the queue, and derivation proceeds exactly as in
// SolveInterned (bits and pending are already consistent — every
// frontier bit is set in bits, and pending holds the counters after
// all scanned decrements).
func (cp *Compiled) drainSequential(b *Binding, bits, frontier bitset.Bits, pending []int32, glo, ghi int) {
	n := len(cp.q)
	stride := n + 1
	queue := make([]int32, 0, drainThreshold)
	frontier.ForEachIn(glo<<6, ghi<<6, func(idx int) { queue = append(queue, int32(idx)) })
	backSources := cp.backSources
	add := func(idx int) {
		if !bits.Test(idx) {
			bits.Set(idx)
			queue = append(queue, int32(idx))
		}
	}
	for head := 0; head < len(queue); head++ {
		idx := int(queue[head])
		u := idx % stride
		if u == 0 {
			continue
		}
		v := u - 1
		pb := b.pos[v]
		if pb == nil {
			continue
		}
		c := idx / stride
		vbase := b.base[v]
		for _, ls := range pb.refList[pb.refStart[c]:pb.refStart[c+1]] {
			bs := vbase + ls
			pending[bs]--
			if pending[bs] == 0 {
				base := int(pb.blockKey[ls]) * stride
				add(base + v)
				for _, w := range backSources[v] {
					add(base + w)
				}
			}
		}
	}
}

// buildBinding builds iv's binding from scratch with the per-relation
// segments built on up to workers goroutines (distinct relations write
// disjoint posBindings); one segment is shared across positions with
// the same relation.
func (cp *Compiled) buildBinding(iv *instance.Interned, workers int) *Binding {
	n := len(cp.q)
	nc := iv.NumConsts()
	b := &Binding{nc: nc, pos: make([]*posBinding, n), base: make([]int32, n+1)}
	posRel := make([]int32, n) // rid per position, -1 when absent
	slot := make(map[int32]int, n)
	rids := make([]int32, 0, n)
	for v := 0; v < n; v++ {
		rid, ok := iv.RelID(cp.q[v])
		if !ok {
			posRel[v] = -1
			continue
		}
		posRel[v] = rid
		if _, dup := slot[rid]; !dup {
			slot[rid] = len(rids)
			rids = append(rids, rid)
		}
	}
	built := make([]*posBinding, len(rids))
	if workers > len(rids) {
		workers = len(rids)
	}
	rb := par.Blocks(len(rids), workers, 1)
	par.Run(len(rb)-1, func(w int) {
		for i := rb[w]; i < rb[w+1]; i++ {
			built[i] = buildPos(iv, rids[i], nc)
		}
	})
	for v := 0; v < n; v++ {
		if posRel[v] >= 0 {
			b.pos[v] = built[slot[posRel[v]]]
		}
	}
	b.finalize()
	return b
}
