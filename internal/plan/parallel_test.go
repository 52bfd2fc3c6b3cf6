package plan

import (
	"context"
	"runtime"
	"strconv"
	"sync"
	"testing"

	"cqa/internal/instance"
	"cqa/internal/words"
	"cqa/internal/workload"
)

// parallelTestQueries spans the tetrachotomy: RXRX is FO, RRX and
// RRRRRRRRX are NL with certified decompositions (the latter with a
// long pre-word), RXRYRY is PTIME-complete (fixpoint), and ARRX is
// coNP-complete (SAT; its decisions never touch the partitioned path,
// so it doubles as a "nothing engages" control).
var parallelTestQueries = []string{"RXRX", "RRX", "RRRRRRRRX", "RXRYRY", "ARRX"}

// forceSolveWorkers makes every NL and fixpoint artifact build and
// solve of the test run on n workers, whatever the snapshot's size.
func forceSolveWorkers(t *testing.T, n int) {
	t.Helper()
	rule := solveWorkers
	solveWorkers = func(*instance.Interned) int { return n }
	t.Cleanup(func() { solveWorkers = rule })
}

// TestSolveWorkersRule pins the engagement rule: a snapshot below
// parallelFacts facts decides single-core, and one at parallelFacts
// shards across GOMAXPROCS workers, with the plan's parallel counters
// following.
func TestSolveWorkersRule(t *testing.T) {
	db := instance.New()
	for i := 0; i < parallelFacts-1; i++ {
		db.AddFact("R", strconv.Itoa(i), strconv.Itoa(i+1))
	}
	p := Compile(words.MustParse("RXRYRY")) // PTIME: the fixpoint tier
	if iv := db.Interned(); solveWorkers(iv) != 1 {
		t.Fatalf("solveWorkers at %d facts = %d, want 1", iv.NumFacts(), solveWorkers(iv))
	}
	p.Certain(db)
	if s := p.ParallelStats(); s != (ParallelStats{}) {
		t.Fatalf("sub-threshold decision engaged the partitioned path: %+v", s)
	}

	db.AddFact("X", "0", "x")
	iv := db.Interned()
	procs := runtime.GOMAXPROCS(0)
	if got := solveWorkers(iv); iv.NumFacts() != parallelFacts || got != procs {
		t.Fatalf("solveWorkers at %d facts = %d, want %d", iv.NumFacts(), got, procs)
	}
	p.Certain(db)
	if s := p.ParallelStats(); (s.Solves > 0) != (procs > 1) {
		t.Fatalf("decision at %d facts with GOMAXPROCS %d: ParallelStats = %+v", iv.NumFacts(), procs, s)
	}
}

// TestPlanParallelEquivalence runs randomized instances through two
// sets of plans — one pinned single-core, one with the partitioned path
// forced on every non-empty instance — and demands identical decisions
// on every (query, instance) pair, with the parallel plans' counters
// proving the sharded path actually ran. Run under -race at -cpu 1,4
// in CI, this is the plan-level half of the equivalence argument (the
// solver-level halves live in internal/fixpoint and internal/nl).
func TestPlanParallelEquivalence(t *testing.T) {
	dbs := map[string]*instance.Instance{
		"small": workload.Random(workload.Config{
			Relations: []string{"R", "X", "Y"}, Constants: 30, Facts: 120,
			ConflictRate: 0.5, Seed: 101,
		}),
		"mid": workload.Random(workload.Config{
			Relations: []string{"R", "X", "Y"}, Constants: 300, Facts: 1500,
			ConflictRate: 0.3, Seed: 102,
		}),
		"figure2": workload.Figure2Family(120),
	}
	ctx := context.Background()
	decide := func(workers int) (map[string]Result, ParallelStats) {
		forceSolveWorkers(t, workers)
		out := make(map[string]Result)
		var s ParallelStats
		for _, qs := range parallelTestQueries {
			p := Compile(words.MustParse(qs))
			for name, db := range dbs {
				res, err := p.ExecuteCtx(ctx, db, Options{})
				if err != nil {
					t.Fatalf("%s/%s: workers %d: %v", qs, name, workers, err)
				}
				out[qs+"/"+name] = res
			}
			s = s.Add(p.ParallelStats())
		}
		return out, s
	}
	want, seqStats := decide(1)
	got, parStats := decide(4)
	for k, w := range want {
		if g := got[k]; g.Certain != w.Certain || g.Method != w.Method {
			t.Errorf("%s: parallel = (%v, %s), sequential = (%v, %s)", k, g.Certain, g.Method, w.Certain, w.Method)
		}
	}
	if seqStats.Solves != 0 || seqStats.Shards != 0 {
		t.Errorf("single-core plans recorded parallel stats: %+v", seqStats)
	}
	if parStats.Solves == 0 || parStats.Shards == 0 {
		t.Errorf("forced-parallel plans recorded no parallel solves: %+v", parStats)
	}
}

// TestPlanParallelBatch exercises the partitioned solver under
// concurrent callers: goroutines calling the context-free Execute on
// shared plans and memos while each decision itself fans out, the shape
// -race is best at breaking. It also pins that Execute shards exactly
// like ExecuteCtx.
func TestPlanParallelBatch(t *testing.T) {
	db1 := workload.Figure2Family(100)
	db2 := workload.Chain(words.MustParse("RRX"), 200)
	type request struct {
		q  string
		db *instance.Instance
	}
	var reqs []request
	for i := 0; i < 40; i++ {
		db := db1
		if i%2 == 0 {
			db = db2
		}
		reqs = append(reqs, request{parallelTestQueries[i%len(parallelTestQueries)], db})
	}
	compileAll := func() map[string]*Plan {
		plans := make(map[string]*Plan)
		for _, qs := range parallelTestQueries {
			plans[qs] = Compile(words.MustParse(qs))
		}
		return plans
	}

	forceSolveWorkers(t, 1)
	oracle := compileAll()
	want := make([]bool, len(reqs))
	for i, r := range reqs {
		want[i] = oracle[r.q].Certain(r.db).Certain
	}

	forceSolveWorkers(t, 4)
	plans := compileAll()
	const goroutines = 4
	got := make([]Result, len(reqs))
	errs := make([]error, len(reqs))
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := g; i < len(reqs); i += goroutines {
				got[i], errs[i] = plans[reqs[i].q].Execute(reqs[i].db, Options{})
			}
		}()
	}
	wg.Wait()
	for i, r := range reqs {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		if got[i].Certain != want[i] {
			t.Errorf("request %d (%s): batch = %v, oracle = %v", i, r.q, got[i].Certain, want[i])
		}
	}
	var s ParallelStats
	for _, p := range plans {
		s = s.Add(p.ParallelStats())
	}
	if s.Solves == 0 {
		t.Errorf("batch never engaged the partitioned solver: %+v", s)
	}
}
