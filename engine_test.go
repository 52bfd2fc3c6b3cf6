package cqa

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"cqa/internal/repairs"
	"cqa/internal/workload"
)

func TestEngineCacheHitMiss(t *testing.T) {
	eng := NewEngine(EngineConfig{})
	db, _ := ParseFacts("R(0,1) R(1,2) R(1,3) R(2,3) X(3,4)")
	q := MustParseQuery("RRX")

	eng.Certain(q, db)
	if s := eng.Stats().Plans; s.Misses != 1 || s.Hits != 0 || s.Entries != 1 {
		t.Fatalf("after first call: %+v", s)
	}
	for i := 0; i < 5; i++ {
		eng.Certain(q, db)
	}
	if s := eng.Stats().Plans; s.Misses != 1 || s.Hits != 5 || s.Entries != 1 {
		t.Fatalf("after repeats: %+v", s)
	}
	// A different spelling of the same word hits the same plan.
	eng.Certain(MustParseQuery("R R X"), db)
	if s := eng.Stats().Plans; s.Misses != 1 || s.Hits != 6 {
		t.Fatalf("after respelled query: %+v", s)
	}
	// A new word misses.
	eng.Certain(MustParseQuery("RXRX"), db)
	if s := eng.Stats().Plans; s.Misses != 2 || s.Entries != 2 {
		t.Fatalf("after new query: %+v", s)
	}
}

func TestEngineCompileReturnsSamePlan(t *testing.T) {
	eng := NewEngine(EngineConfig{})
	q := MustParseQuery("RRX")
	p1 := eng.Compile(q)
	p2 := eng.Compile(MustParseQuery("RRX"))
	if p1 != p2 {
		t.Error("repeated Compile of the same word must return the cached plan")
	}
	if p1.Class() != NL || p1.Method() != MethodNL {
		t.Errorf("plan: class=%v method=%v", p1.Class(), p1.Method())
	}
}

// TestEngineKeysPlansByWord pins that the plan cache and the batch
// grouping tell apart words whose display strings collide: "Ab" (one
// relation Ab) and "A b" (A, then b) both render as "Ab", and "AB,"
// (one relation AB) and "AB" (A, then B) both render as "AB". Each word
// must get its own plan and the answer a fresh engine gives.
func TestEngineKeysPlansByWord(t *testing.T) {
	db, err := ParseFacts("A(0,1) b(1,2) AB(0,1)")
	if err != nil {
		t.Fatal(err)
	}
	want := func(q Query) bool { return NewEngine(EngineConfig{}).Certain(q, db).Certain }
	eng := NewEngine(EngineConfig{})
	var reqs []Request
	var names []string
	for _, pair := range [][2]string{{"Ab", "A b"}, {"AB,", "AB"}} {
		q0, q1 := MustParseQuery(pair[0]), MustParseQuery(pair[1])
		if q0.String() != q1.String() || want(q0) == want(q1) {
			t.Fatalf("%q and %q must render alike and decide apart on %v", pair[0], pair[1], db)
		}
		if eng.Compile(q0) == eng.Compile(q1) {
			t.Errorf("%q and %q share one cached plan", pair[0], pair[1])
		}
		for i, q := range []Query{q0, q1} {
			if got := eng.Certain(q, db).Certain; got != want(q) {
				t.Errorf("%q after its twin: certain = %v, fresh engine says %v", pair[i], got, want(q))
			}
			reqs = append(reqs, Request{Query: q, DB: db})
			names = append(names, pair[i])
		}
	}
	for i, res := range NewEngine(EngineConfig{}).CertainBatch(context.Background(), reqs) {
		if q := reqs[i].Query; res.Err != nil || res.Certain != want(q) {
			t.Errorf("batch request %q: certain = %v, err = %v, fresh engine says %v", names[i], res.Certain, res.Err, want(q))
		}
	}
}

func TestEngineLRUEviction(t *testing.T) {
	eng := NewEngine(EngineConfig{PlanCacheSize: 2})
	db := NewInstance()
	for _, qs := range []string{"RRX", "RXRX", "RXRYRY"} {
		eng.Certain(MustParseQuery(qs), db)
	}
	if s := eng.Stats().Plans; s.Entries != 2 || s.Misses != 3 {
		t.Fatalf("after filling: %+v", s)
	}
	// RRX was least recently used and must have been evicted.
	eng.Certain(MustParseQuery("RRX"), db)
	if s := eng.Stats().Plans; s.Misses != 4 {
		t.Fatalf("evicted query must recompile: %+v", s)
	}
	// RXRYRY stayed (it was most recent before the RRX recompile).
	eng.Certain(MustParseQuery("RXRYRY"), db)
	if s := eng.Stats().Plans; s.Hits != 1 {
		t.Fatalf("recent query must hit: %+v", s)
	}
}

// TestPlanMatchesColdEvaluation checks that a reused plan decides
// exactly like a cold facade call on a spread of instances per class.
func TestPlanMatchesColdEvaluation(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	eng := NewEngine(EngineConfig{})
	for _, qs := range []string{"RXRX", "RRX", "RRRRX", "RXRYRY", "ARRX"} {
		q := MustParseQuery(qs)
		p := eng.Compile(q)
		for it := 0; it < 40; it++ {
			db := randomSmallInstance(rng)
			got := p.Certain(db)
			want := repairs.IsCertain(db, q.Word())
			if got.Certain != want {
				t.Fatalf("q=%v it=%d db=%s: plan=%v exhaustive=%v", q, it, db, got.Certain, want)
			}
		}
	}
}

func randomSmallInstance(rng *rand.Rand) *Instance {
	db := NewInstance()
	n := 1 + rng.Intn(8)
	for i := 0; i < n; i++ {
		rel := []string{"R", "X", "Y", "A"}[rng.Intn(4)]
		db.AddFact(rel, string(rune('a'+rng.Intn(4))), string(rune('a'+rng.Intn(4))))
	}
	return db
}

// TestCertainBatchMatchesSequential runs the generated-query workload
// through CertainBatch and checks every decision against the sequential
// facade.
func TestCertainBatchMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	queries := []string{"RXRX", "RRX", "RXRYRY", "ARRX", "RR", "RX"}
	var reqs []Request
	for i := 0; i < 60; i++ {
		db := workload.Random(workload.Config{
			Relations:    []string{"R", "X", "Y", "A"},
			Constants:    4 + rng.Intn(6),
			Facts:        5 + rng.Intn(20),
			ConflictRate: 0.4,
			Seed:         int64(i),
		})
		reqs = append(reqs, Request{Query: MustParseQuery(queries[i%len(queries)]), DB: db})
	}
	eng := NewEngine(EngineConfig{Workers: 8})
	results := eng.CertainBatch(context.Background(), reqs)
	if len(results) != len(reqs) {
		t.Fatalf("got %d results for %d requests", len(results), len(reqs))
	}
	for i, res := range results {
		if res.Err != nil {
			t.Fatalf("request %d: %v", i, res.Err)
		}
		want := Certain(reqs[i].Query, reqs[i].DB)
		if res.Certain != want.Certain || res.Class != want.Class || res.Method != want.Method {
			t.Errorf("request %d (q=%v): batch=%+v sequential=%+v", i, reqs[i].Query, res, want)
		}
	}
	if s := eng.Stats().Plans; s.Entries != len(queries) {
		t.Errorf("expected %d distinct plans, cache has %+v", len(queries), s)
	}
}

// TestCertainBatchSharedInstance exercises many concurrent evaluations
// over one shared *Instance (the first reads race to publish its one
// interned snapshot, which must be race-free; run with -race).
func TestCertainBatchSharedInstance(t *testing.T) {
	db := workload.Random(workload.Config{
		Relations:    []string{"R", "X", "Y"},
		Constants:    20,
		Facts:        60,
		ConflictRate: 0.3,
		Seed:         5,
	})
	var reqs []Request
	for i := 0; i < 32; i++ {
		reqs = append(reqs, Request{Query: MustParseQuery([]string{"RRX", "RXRYRY"}[i%2]), DB: db})
	}
	results := NewEngine(EngineConfig{Workers: 8}).CertainBatch(context.Background(), reqs)
	for i, res := range results {
		if res.Err != nil {
			t.Fatalf("request %d: %v", i, res.Err)
		}
		if i >= 2 && res.Certain != results[i%2].Certain {
			t.Errorf("request %d disagrees with request %d on the same instance", i, i%2)
		}
	}
}

func TestCertainBatchUnsoundForce(t *testing.T) {
	db, _ := ParseFacts("R(a,b)")
	reqs := []Request{
		{Query: MustParseQuery("RRX"), DB: db},
		{Query: MustParseQuery("ARRX"), DB: db, Options: Options{Force: MethodFO}},
	}
	results := CertainBatch(context.Background(), reqs)
	if results[0].Err != nil {
		t.Errorf("sound request errored: %v", results[0].Err)
	}
	if results[1].Err == nil {
		t.Error("unsound forced tier must set Err")
	}
}

func TestCertainBatchCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	db, _ := ParseFacts("R(a,b)")
	var reqs []Request
	for i := 0; i < 16; i++ {
		reqs = append(reqs, Request{Query: MustParseQuery("RRX"), DB: db})
	}
	for i, res := range DefaultEngine().CertainBatch(ctx, reqs) {
		if res.Err == nil {
			t.Errorf("request %d: want context error, got %+v", i, res)
		}
	}
}

func TestCertainBatchEmpty(t *testing.T) {
	if got := CertainBatch(context.Background(), nil); len(got) != 0 {
		t.Errorf("empty batch: %v", got)
	}
}

// skewedShardWorkload builds the sharded-scheduler stress mix: a few
// hot query words whose requests cycle over nInstances shared instances
// (scattered in input order, so only snapshot-affine dispatch serves
// the per-snapshot tier memos warm), plus a tail of distinct cold NL
// words whose plans are expensive to compile. reps is how many times
// each (hot word, instance) pair recurs.
func skewedShardWorkload(nInstances, facts, reps int) []Request {
	dbs := make([]*Instance, nInstances)
	for i := range dbs {
		dbs[i] = workload.Random(workload.Config{
			Relations:    []string{"R", "X", "Y"},
			Constants:    facts / 2,
			Facts:        facts,
			ConflictRate: 0.3,
			Seed:         int64(100 + i),
		})
	}
	hot := []Query{MustParseQuery("RRX"), MustParseQuery("RXRYRY")}
	var reqs []Request
	for i := 0; i < reps*len(hot)*nInstances; i++ {
		reqs = append(reqs, Request{
			Query: hot[i%len(hot)],
			DB:    dbs[(i/len(hot))%nInstances],
		})
	}
	for k := 3; k <= 8; k++ { // cold words R^kX, one request each
		reqs = append(reqs, Request{
			Query: MustParseQuery(strings.Repeat("R", k) + "X"),
			DB:    dbs[0],
		})
	}
	return reqs
}

func distinctWords(reqs []Request) int {
	seen := make(map[string]bool)
	for _, r := range reqs {
		seen[r.Query.String()] = true
	}
	return len(seen)
}

// TestCertainBatchShardedMatchesSequential checks the two-phase sharded
// scheduler against one CertainOpt call per request on a fresh engine,
// on a skewed word mix over shared instances: identical results in
// request order, and exactly one plan compilation per distinct word
// despite the concurrent compile pre-pass (run with -race and
// -cpu 1,4).
func TestCertainBatchShardedMatchesSequential(t *testing.T) {
	const nInstances = 8
	reqs := skewedShardWorkload(nInstances, 60, 3)
	sharded := NewEngine(EngineConfig{Workers: 8})
	sequential := NewEngine(EngineConfig{})

	got := sharded.CertainBatch(context.Background(), reqs)
	if len(got) != len(reqs) {
		t.Fatalf("result lengths: sharded=%d reqs=%d", len(got), len(reqs))
	}
	for i := range got {
		want, err := sequential.CertainOpt(reqs[i].Query, reqs[i].DB, reqs[i].Options)
		want.Err = err
		if fmt.Sprintf("%+v", got[i]) != fmt.Sprintf("%+v", want) {
			t.Errorf("request %d (q=%v):\n sharded    %+v\n sequential %+v",
				i, reqs[i].Query, got[i], want)
		}
	}

	words := distinctWords(reqs)
	s := sharded.Stats().Plans
	if s.Compiles != uint64(words) || s.Misses != uint64(words) {
		t.Errorf("per-word compile count must be exactly 1: %+v for %d distinct words", s, words)
	}
	// One plan-cache lookup per distinct word, not per request.
	if s.Hits != 0 {
		t.Errorf("sharded batch must look each word up once: %+v", s)
	}
	if s.Shards == 0 {
		t.Errorf("no shards dispatched: %+v", s)
	}
	// Snapshot-affine dispatch: the PTIME-tier plan bound its interned
	// tables exactly once per instance, every other decision was a warm
	// memo hit.
	ms := sharded.Compile(MustParseQuery("RXRYRY")).MemoStats()
	if ms.Misses != nInstances {
		t.Errorf("fixpoint bindings built %d times for %d snapshots", ms.Misses, nInstances)
	}
}

// TestCertainBatchShardedCancellation cancels a sharded batch mid-run:
// every request must either carry the context error or agree exactly
// with an uncancelled reference run — no partial or stale decisions.
func TestCertainBatchShardedCancellation(t *testing.T) {
	reqs := skewedShardWorkload(4, 40, 8)
	ref := NewEngine(EngineConfig{}).CertainBatch(context.Background(), reqs)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		time.Sleep(200 * time.Microsecond)
		cancel()
	}()
	got := NewEngine(EngineConfig{Workers: 4}).CertainBatch(ctx, reqs)
	cancelled := 0
	for i, res := range got {
		if res.Err != nil {
			if !errors.Is(res.Err, context.Canceled) {
				t.Errorf("request %d: unexpected error %v", i, res.Err)
			}
			cancelled++
			continue
		}
		if fmt.Sprintf("%+v", res) != fmt.Sprintf("%+v", ref[i]) {
			t.Errorf("request %d diverges from reference:\n got %+v\nwant %+v", i, res, ref[i])
		}
	}
	t.Logf("cancelled %d/%d requests", cancelled, len(reqs))
}

// TestEngineConcurrentCompile hammers one engine from many goroutines
// mixing cache hits, misses, and evictions (run with -race).
func TestEngineConcurrentCompile(t *testing.T) {
	eng := NewEngine(EngineConfig{PlanCacheSize: 3})
	db, _ := ParseFacts("R(0,1) R(1,2) R(1,3) R(2,3) X(3,4)")
	words := []string{"RRX", "RXRX", "RXRYRY", "ARRX", "RR", "RX", "RRRRX"}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 50; i++ {
				q := MustParseQuery(words[rng.Intn(len(words))])
				res := eng.Certain(q, db)
				if res.Err != nil {
					t.Errorf("unexpected Err: %v", res.Err)
					return
				}
			}
		}(int64(g))
	}
	wg.Wait()
	if s := eng.Stats().Plans; s.Entries > 3 {
		t.Errorf("cache exceeded capacity: %+v", s)
	}
}

func TestDefaultEngineBacksFacade(t *testing.T) {
	q := MustParseQuery(fmt.Sprintf("R%s", "XRYRY")) // avoid test-order-dependent cache state
	before := DefaultEngine().Stats().Plans
	db := NewInstance()
	Certain(q, db)
	Certain(q, db)
	after := DefaultEngine().Stats().Plans
	if after.Hits+after.Misses < before.Hits+before.Misses+2 {
		t.Errorf("facade calls must go through the default engine: before=%+v after=%+v", before, after)
	}
}

// TestInternedBindingInvalidation is the serving-path staleness check:
// a compiled plan memoizes its interned transition tables per instance
// snapshot, and a mutation of the instance must make the engine see the
// new state — the stale snapshot is unreachable because mutation
// publishes a fresh interned view.
func TestInternedBindingInvalidation(t *testing.T) {
	eng := NewEngine(EngineConfig{})
	q := MustParseQuery("RXRYRY") // PTIME tier: interned fixpoint solver
	db := NewInstance()
	db.AddFact("R", "a", "b")

	res := eng.Certain(q, db)
	if res.Method != MethodFixpoint || res.Certain {
		t.Fatalf("lone R fact: res=%+v", res)
	}
	iv1 := db.Interned()

	// Grow the instance into a yes-instance of CERTAINTY(RXRYRY):
	// a consistent path a->b->c->d->e->f->g through R,X,R,Y,R,Y... use
	// exactly the query's relations.
	for i, rel := range []string{"X", "R", "Y", "R", "Y"} {
		db.AddFact(rel, string(rune('b'+i)), string(rune('c'+i)))
	}
	if db.Interned() == iv1 {
		t.Fatal("mutation did not publish a fresh interned snapshot")
	}
	res = eng.Certain(q, db)
	if !res.Certain {
		t.Fatalf("consistent full path must be certain: %+v", res)
	}

	// Mutate again (introduce a conflict that breaks certainty) and hit
	// the same plan concurrently: all readers must agree on the new
	// state. Run with -race in CI.
	db.AddFact("X", "b", "zz") // conflicting block X(b,*): repair may pick zz
	want := eng.Certain(q, db).Certain
	if want {
		t.Fatal("conflicting X(b,*) block should break certainty")
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if eng.Certain(q, db).Certain != want {
					t.Error("stale result after mutation")
					return
				}
			}
		}()
	}
	wg.Wait()

	// The old snapshot still answers for its own state: results bound
	// to iv1 were not mutated in place.
	if iv1.NumFacts() != 1 {
		t.Errorf("old interned snapshot mutated: %d facts", iv1.NumFacts())
	}
}
