package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"cqa"
)

// counters are the same-work counters: for a fixed seed they depend
// only on the work done, never on timing, so two runs whose counters
// differ did different work and must not be compared.
type counters struct {
	Compiles   uint64 `json:"plan_compiles"`
	Hits       uint64 `json:"memo_hits"`
	Repairs    uint64 `json:"memo_repairs"`
	ColdBuilds uint64 `json:"memo_cold_builds"`
	ParSolves  uint64 `json:"parallel_solves"`
	ParShards  uint64 `json:"parallel_shards"`
	Rejected   uint64 `json:"router_rejected"`
	Shed       uint64 `json:"router_shed"`
}

func countersOf(s cqa.Stats) counters {
	return counters{
		Compiles:   s.Plans.Compiles,
		Hits:       s.Memo.Hits,
		Repairs:    s.Memo.Repairs,
		ColdBuilds: s.Memo.ColdBuilds,
		ParSolves:  s.Parallel.Solves,
		ParShards:  s.Parallel.Shards,
	}
}

func (c counters) add(d counters) counters {
	return counters{c.Compiles + d.Compiles, c.Hits + d.Hits, c.Repairs + d.Repairs, c.ColdBuilds + d.ColdBuilds,
		c.ParSolves + d.ParSolves, c.ParShards + d.ParShards, c.Rejected + d.Rejected, c.Shed + d.Shed}
}

func (c counters) sub(d counters) counters {
	return counters{c.Compiles - d.Compiles, c.Hits - d.Hits, c.Repairs - d.Repairs, c.ColdBuilds - d.ColdBuilds,
		c.ParSolves - d.ParSolves, c.ParShards - d.ParShards, c.Rejected - d.Rejected, c.Shed - d.Shed}
}

// phaseCounters are the counters accumulated by the set-up and the
// timed phase of one run.
type phaseCounters struct {
	Setup counters `json:"setup"`
	Timed counters `json:"timed"`
}

// allocTable sums heap objects allocated per decision, keyed by
// "tier.outcome": value [0] is the object count, [1] the decisions.
type allocTable map[string][2]int64

// crossEvery is the snapshot stride of the conp-sat cross-check: the
// first state of every instance and every crossEvery-th one after it.
// The forced SAT decisions dominate churn's reference; at a stride of 8
// they took 20 s of a run on a slowed host.
const crossEvery = 32

// decisionKey names one decision: a word on one state of an instance.
type decisionKey struct {
	name    string
	version int
	word    int
}

// known is a decision the reference has made: its answer, and once
// measured, the counters a repeat of it adds (a repeat on an unchanged
// snapshot is a memo hit, or nothing for FO, every time).
type known struct {
	certain bool
	repeat  *counters
}

// expect computes the expected answer of every decision of b in
// process, outside any timed phase, and fills op.want. Each client's
// script replays through its own cqa.Registry on a default engine —
// the daemon's configuration — so the clients run in parallel and the
// counters do not depend on how they interleave; their sum is the
// seed's reference for the same-work check, which holds as long as the
// daemon's shared memos evict nothing a later step repairs from. A
// decision repeated on an unchanged snapshot is evaluated once more to
// measure what a repeat adds, then credited without evaluating; this
// keeps the reference of warm-read to the cost of its set-up.
//
// First decisions of non-coNP words on warm-read and churn snapshots
// (every crossEvery-th state of each instance) are also decided by a
// forced conp-sat plan on a separate engine; a disagreement between the
// tiers is an error.
//
// With traced set, the clients run one after another, the probe phase
// is included, and every evaluated decision counts its heap
// allocations by tier and memo outcome.
func expect(ctx context.Context, b *bench, traced bool) (phaseCounters, allocTable, error) {
	n := len(b.clients)
	outs := make([]phaseCounters, n)
	allocs := make([]allocTable, n)
	errs := make([]error, n)
	if traced {
		for c, s := range b.clients {
			outs[c], allocs[c], errs[c] = expectClient(ctx, b, s, true)
		}
	} else {
		var wg sync.WaitGroup
		for c, s := range b.clients {
			wg.Add(1)
			go func() {
				defer wg.Done()
				outs[c], allocs[c], errs[c] = expectClient(ctx, b, s, false)
			}()
		}
		wg.Wait()
	}
	var sum phaseCounters
	all := allocTable{}
	for c := range outs {
		if errs[c] != nil {
			return sum, nil, errs[c]
		}
		sum.Setup = sum.Setup.add(outs[c].Setup)
		sum.Timed = sum.Timed.add(outs[c].Timed)
		for k, v := range allocs[c] {
			a := all[k]
			all[k] = [2]int64{a[0] + v[0], a[1] + v[1]}
		}
	}
	// Each engine compiled the words its client decides; the daemon's
	// one engine compiles every distinct word once, all in set-up.
	words := map[int]bool{}
	for _, s := range b.clients {
		for _, o := range s.setup {
			for _, w := range o.words {
				words[w] = true
			}
		}
	}
	sum.Setup.Compiles = uint64(len(words))
	return sum, all, nil
}

// expectClient is expect for one client's script.
func expectClient(ctx context.Context, b *bench, s *script, traced bool) (phaseCounters, allocTable, error) {
	eng := cqa.NewEngine(cqa.EngineConfig{})
	reg := cqa.NewRegistry(eng)
	sat := cqa.NewEngine(cqa.EngineConfig{})
	dbs := map[string]*cqa.Instance{}
	version := map[string]int{}
	memo := map[decisionKey]*known{}
	allocs := allocTable{}
	var credited counters

	// evaluate runs one decision, counting its allocations by tier and
	// memo outcome when traced.
	evaluate := func(name string, w int) (cqa.Result, error) {
		if !traced {
			return reg.Query(ctx, name, b.queries[w], cqa.Options{})
		}
		p := eng.Compile(b.queries[w])
		before := p.MemoStats()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		mallocs := ms.Mallocs
		res, err := reg.Query(ctx, name, b.queries[w], cqa.Options{})
		runtime.ReadMemStats(&ms)
		key := tierNames[p.Method()] + "." + memoOutcome(before, p.MemoStats())
		a := allocs[key]
		allocs[key] = [2]int64{a[0] + int64(ms.Mallocs-mallocs), a[1] + 1}
		return res, err
	}

	decide := func(name string, w int) (bool, error) {
		k := decisionKey{name, version[name], w}
		if kn := memo[k]; kn != nil {
			if kn.repeat != nil {
				credited = credited.add(*kn.repeat)
				return kn.certain, nil
			}
			before := countersOf(eng.Stats())
			res, err := evaluate(name, w)
			if err != nil {
				return false, err
			}
			d := countersOf(eng.Stats()).sub(before)
			kn.repeat = &d
			if res.Certain != kn.certain {
				return false, fmt.Errorf("%s %s: repeated decision changed from %v to %v", name, b.words[w], kn.certain, res.Certain)
			}
			return res.Certain, nil
		}
		res, err := evaluate(name, w)
		if err != nil {
			return false, err
		}
		if b.name != "giant" && version[name]%crossEvery == 0 && res.Method != cqa.MethodSAT {
			alt, err := sat.CertainOptCtx(ctx, b.queries[w], dbs[name], cqa.Options{Force: cqa.MethodSAT})
			if err != nil {
				return false, err
			}
			if alt.Certain != res.Certain {
				return false, fmt.Errorf("%s %s: %s says %v, conp-sat says %v", name, b.words[w], res.Method, res.Certain, alt.Certain)
			}
		}
		memo[k] = &known{certain: res.Certain}
		return res.Certain, nil
	}

	apply := func(o *op) error {
		switch o.kind {
		case opRegister:
			db, err := cqa.ParseFacts(string(o.body))
			if err != nil {
				return err
			}
			dbs[o.name] = db
			return reg.Register(o.name, db)
		case opDrop:
			if !reg.Drop(o.name) {
				return fmt.Errorf("drop %s: not registered", o.name)
			}
			delete(dbs, o.name)
		case opMutate:
			if _, err := reg.Mutate(o.name, o.mut); err != nil {
				return err
			}
			version[o.name]++
		case opBatch, opQuery:
			o.want = make([]bool, len(o.words))
			for i, w := range o.words {
				c, err := decide(o.name, w)
				if err != nil {
					return err
				}
				o.want[i] = c
			}
		}
		return nil
	}

	var out phaseCounters
	phases := [][]op{s.setup, s.timed}
	if traced {
		phases = append(phases, s.probe)
	}
	start := countersOf(eng.Stats())
	for p, ops := range phases {
		for i := range ops {
			if err := apply(&ops[i]); err != nil {
				return out, nil, fmt.Errorf("reference: op %d: %w", ops[i].id, err)
			}
		}
		now := countersOf(eng.Stats()).add(credited)
		switch p {
		case 0:
			out.Setup = now.sub(start)
		case 1:
			out.Timed = now.sub(start).sub(out.Setup)
		}
	}
	return out, allocs, nil
}
