package cqa

import (
	"context"
	"strings"
	"testing"

	"cqa/internal/workload"
)

// TestEngineParallelThresholdDefault checks the engagement rule at the
// engine: instances below 1<<16 facts stay single-core. The sharded
// paths themselves are checked against their sequential oracles in
// internal/plan (TestPlanParallelEquivalence, TestPlanParallelBatch),
// internal/fixpoint and internal/nl.
func TestEngineParallelThresholdDefault(t *testing.T) {
	eng := NewEngine(EngineConfig{})
	db := workload.Figure2Family(50) // far below 1<<16 facts
	res, err := eng.CertainCtx(context.Background(), MustParseQuery("RRRRRRRRX"), db)
	if err != nil {
		t.Fatal(err)
	}
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if s := eng.Stats(); s.Parallel.Solves != 0 {
		t.Errorf("sub-threshold decision engaged the partitioned solver: %+v", s.Parallel)
	}
}

// TestStatsStringParallelLine pins the third stats line, which `cqa
// batch -stats` prints and the serve daemon logs on drain.
func TestStatsStringParallelLine(t *testing.T) {
	s := Stats{Parallel: ParallelStats{Solves: 3, Shards: 12}}
	const line = "parallel: 3 solves, 12 shards"
	if got := s.String(); !strings.Contains(got, line) {
		t.Errorf("Stats.String() = %q, want substring %q", got, line)
	}
}
