package cqa

import (
	"fmt"

	"cqa/internal/memo"
	"cqa/internal/plan"
)

// Stats is the engine's unified counter snapshot: one tree covering the
// plan cache and batch scheduler (Plans) and the per-snapshot artifact
// memos of every tier behind every cached plan (Memo). It replaces the
// former ad-hoc surfaces (Engine.CacheStats, the per-tier memo
// counters); plan.MemoStats now only feeds it.
// Engine.Stats takes the snapshot; the serve daemon's /metrics
// endpoint serves it as the "engine" subtree of a JSON tree that adds
// the registry's instance info and the router's counters. The struct
// is JSON-serializable as written — the field tags are the wire
// contract of /metrics.
type Stats struct {
	Plans PlanStats `json:"plans"`
	Memo  MemoStats `json:"memo"`
	// Parallel counts decisions that engaged the partitioned
	// fixpoint/NL solver, which every decision on a snapshot of at least
	// 1<<16 facts does when GOMAXPROCS > 1: Solves is the number of
	// solves or NL binding builds that took the sharded path, Shards
	// the total constant-range shards they dispatched. Zero everywhere
	// means every decision ran single-core.
	Parallel ParallelStats `json:"parallel"`
	// Panics counts evaluation panics recovered into per-request errors
	// at the engine's context-aware entry points (see ErrPanic); on a
	// healthy deployment it stays zero.
	Panics uint64 `json:"panics"`
}

// PlanStats are the plan-cache and batch-scheduler counters.
type PlanStats struct {
	// Hits and Misses count Compile lookups since the engine was
	// created. The sharded CertainBatch looks each distinct word up
	// once per batch, not once per request.
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
	// Entries is the number of plans currently cached; an LRU cache
	// may hold fewer plans than were ever compiled.
	Entries int `json:"entries"`
	// Compiles counts plan compilations that finished executing. Every
	// miss leads to exactly one compilation (an evicted word looked up
	// again is a fresh miss and a fresh compilation), so at rest
	// Compiles == Misses; it is the number to report as "plans
	// compiled", which Entries — the current residency — is not.
	Compiles uint64 `json:"compiles"`
	// Shards counts the shards the sharded CertainBatch scheduler has
	// dispatched to evaluation workers.
	Shards uint64 `json:"shards"`
}

// MemoStats aggregate the per-snapshot memos behind every plan still
// cached, one per built tier (FO start sets, NL artifacts, fixpoint
// bindings, coNP encodings), each entry holding the artifact and the
// stored decision. Plans evicted from the plan cache no longer
// contribute.
type MemoStats struct {
	// Hits are decisions on a resident snapshot entry, nearly all
	// served from its stored decision — the quantity snapshot-affine
	// routing exists to maximize.
	Hits uint64 `json:"hits"`
	// Misses are instance-bound artifact builds.
	Misses uint64 `json:"misses"`
	// Repairs are the misses served by a lineage repair — patching a
	// resident ancestor snapshot's artifact — instead of building cold.
	Repairs uint64 `json:"repairs"`
	// ColdBuilds = Misses - Repairs: from-scratch builds. On a warm
	// serving path this is the number that should stay flat.
	ColdBuilds uint64 `json:"cold_builds"`
	// MaxLineageDepth is the deepest snapshot delta chain any repair
	// crossed.
	MaxLineageDepth uint64 `json:"max_lineage_depth"`
}

// ParallelStats are the partitioned-solver counters, re-exported from
// the plan layer (which aliases the fixpoint package's type, keeping
// one definition and one set of JSON tags).
type ParallelStats = plan.ParallelStats

// memoStatsFrom converts the internal memo counters, materializing the
// derived ColdBuilds so every renderer (String, JSON, /metrics) agrees
// on it.
func memoStatsFrom(m memo.Stats) MemoStats {
	return MemoStats{
		Hits:            m.Hits,
		Misses:          m.Misses,
		Repairs:         m.Repairs,
		ColdBuilds:      m.ColdBuilds(),
		MaxLineageDepth: m.MaxLineageDepth,
	}
}

// Stats returns a snapshot of the engine's counters. It is safe to call
// concurrently with evaluation; the memo aggregation skips plans whose
// compilation is still in flight.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	s := Stats{
		Plans: PlanStats{
			Hits:     e.hits,
			Misses:   e.miss,
			Entries:  e.order.Len(),
			Compiles: e.compiles.Load(),
			Shards:   e.shards.Load(),
		},
		Panics: e.panics.Load(),
	}
	var m memo.Stats
	for el := e.order.Front(); el != nil; el = el.Next() {
		if entry := el.Value.(*cacheEntry); entry.done.Load() {
			m = m.Add(entry.plan.MemoStats())
			s.Parallel = s.Parallel.Add(entry.plan.ParallelStats())
		}
	}
	s.Memo = memoStatsFrom(m)
	return s
}

// String renders the snapshot as three human-readable lines, one per
// subtree — the format `cqa batch -stats` prints (with a "# " comment
// prefix) and the serve daemon logs on drain.
func (s Stats) String() string {
	return fmt.Sprintf(
		"plans: %d compiled, %d cached, %d hits / %d misses, %d shards\n"+
			"memo: %d hits, %d repairs, %d cold builds, max lineage depth %d\n"+
			"parallel: %d solves, %d shards",
		s.Plans.Compiles, s.Plans.Entries, s.Plans.Hits, s.Plans.Misses, s.Plans.Shards,
		s.Memo.Hits, s.Memo.Repairs, s.Memo.ColdBuilds, s.Memo.MaxLineageDepth,
		s.Parallel.Solves, s.Parallel.Shards)
}
