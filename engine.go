// Engine: compiled-plan evaluation with caching and batching.
//
// # Quickstart
//
// The free functions Certain and CertainOpt are all most programs need;
// they run on a shared package-level Engine, so repeated queries reuse
// compiled plans automatically:
//
//	q := cqa.MustParseQuery("RRX")
//	db, _ := cqa.ParseFacts("R(0,1) R(1,2) R(1,3) R(2,3) X(3,4)")
//	res := cqa.Certain(q, db) // compiles (and caches) the plan for RRX
//
// A dedicated Engine gives control over the plan-cache size and the
// batch worker pool:
//
//	eng := cqa.NewEngine(cqa.EngineConfig{PlanCacheSize: 128, Workers: 8})
//	p := eng.Compile(q)             // classification + tier artifacts, once
//	res = p.Certain(db)             // per-instance work only
//	fmt.Println(eng.Stats())        // unified counter snapshot (stats.go)
//
// For serving-style workloads — many (query, instance) pairs in flight
// at once — CertainBatch evaluates requests on a worker pool, sharing
// one compiled plan per distinct query word:
//
//	reqs := []cqa.Request{{Query: q, DB: db1}, {Query: q, DB: db2}}
//	for _, r := range eng.CertainBatch(ctx, reqs) {
//		if r.Err != nil { ... }     // cancelled or unsound forced tier
//	}
//
// # Sharded batch scheduling
//
// CertainBatch is a two-phase sharded scheduler. A pre-pass groups the
// requests by query word and compiles every distinct word's plan
// concurrently (bounded by EngineConfig.Workers), off the
// evaluation workers' critical path — a worker never sits inside
// plan.Compile while runnable requests wait behind it, which matters
// when one cold word's compilation (e.g. the DFA certification of an NL
// decomposition) would otherwise stall a whole chunk. Evaluation then
// dispatches shards — a compiled plan plus a run of request indexes,
// reordered within each word so requests against the same instance are
// consecutive (at most 32 requests per shard). Since
// the tiers memoize their instance-bound artifacts per interned
// snapshot, snapshot-affine runs landing on one worker turn what would
// be contended build-once memo entries into warm hits: each (plan,
// snapshot) pair builds its binding, CNF, or NL artifacts exactly once
// per batch instead of racing — or, past the memo's LRU bound,
// thrashing — across scattered workers. Results are returned in request
// order regardless of shard order.
//
// Compiling a plan runs the Theorem 3 classification once and
// precomputes the dispatched tier's machinery — the Lemma 13 FO
// rewriting, the certified Section 6.3 loop decomposition, or the
// Figure 5 fixpoint tables — so only instance-dependent work remains
// per call (see internal/plan). Plans are immutable; one plan may serve
// any number of goroutines concurrently.
//
// # Interned evaluation
//
// All four tiers evaluate on the instance's interned view
// (Instance.Interned): the active domain and relation names are
// interned to dense integer ids once per instance state, and the
// solvers run entirely on slice-indexed state — the Lemma 12 DP on
// bitsets, the Figure 5 fixpoint on a bitset relation with a CSR
// successor index, the Section 6.3 loop procedure on bitset predicates
// over a CSR loop-step graph, the SAT tier on a CNF whose variables
// are arithmetic on interned ids. Each compiled plan memoizes, per
// tier and per interned snapshot pointer in a bounded LRU, the tier's
// instance-bound artifact together with the finished decision
// (internal/plan's tier seam). A decision is a pure function of the
// snapshot, so a repeat on an unchanged instance is one memo hit that
// returns the stored decision: no solver work and no allocation.
// Mutating an instance publishes a fresh snapshot, so stale entries are
// unreachable by construction; the first decision on the new snapshot
// repairs its parent's artifact along the lineage (or builds cold) and
// decides once.
//
// # Contexts and serving
//
// Every evaluation entry point has a context-aware twin — CertainCtx,
// CertainOptCtx, Plan.ExecuteCtx — that checks cancellation before
// dispatch and polls it inside the long-running tiers (the batch
// dispatcher between requests, the SAT search loop between conflicts).
// The context-free forms decide exactly like their twins under
// context.Background(), giant snapshots sharded alike, but propagate a
// panicking decision instead of recovering it into ErrPanic.
//
// For resident deployments, a Registry holds named, long-lived
// instances behind per-instance read-write locks: queries evaluate
// under the read lock, Registry.Mutate publishes one new interned
// snapshot per batch under the write lock, and the tier memos repair
// that snapshot from its parent on the next decision instead of
// rebuilding. The `cqa serve` daemon (internal/server) exposes a
// Registry over HTTP/NDJSON with a persistent shard router that pins
// every instance's operations to one resident worker goroutine, so
// streams stay memo-warm across requests and connections; see
// docs/serving.md for the wire protocol and lifecycle.
package cqa

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"cqa/internal/plan"
)

// ErrPanic wraps a panic recovered at an evaluation boundary: the
// context-aware entry points (CertainCtx, CertainOptCtx, the
// CertainBatch workers) convert a panicking decision into a
// per-request error instead of killing the process, incrementing
// Stats.Panics. The panic value's rendering is wrapped into the error
// message.
var ErrPanic = errors.New("cqa: evaluation panicked")

// Plan is a compiled execution plan for one path query: the Theorem 3
// classification plus the precomputed artifacts of its solver tier.
// Plans are immutable and safe for concurrent use.
type Plan = plan.Plan

// EngineConfig tunes an Engine.
type EngineConfig struct {
	// PlanCacheSize bounds the number of compiled plans kept in the
	// LRU cache. 0 means DefaultPlanCacheSize.
	PlanCacheSize int
	// Workers is the number of evaluation goroutines CertainBatch
	// runs, and the bound on how many distinct query words its
	// pre-pass compiles concurrently. 0 means runtime.GOMAXPROCS(0).
	Workers int
}

// DefaultPlanCacheSize is the plan-cache bound used when
// EngineConfig.PlanCacheSize is 0.
const DefaultPlanCacheSize = 256

// batchShardSize caps how many requests one CertainBatch shard
// carries. Larger shards maximize snapshot affinity and minimize
// dispatch overhead; smaller shards balance load across workers.
const batchShardSize = 32

// Engine evaluates CERTAINTY(q, db) through an LRU cache of compiled
// plans keyed by the query word, plus a worker pool for batch
// evaluation. The zero value is not usable; construct with NewEngine.
// An Engine is safe for concurrent use.
type Engine struct {
	capacity int
	workers  int

	// compiles counts plan.Compile executions, shards batch shards
	// dispatched; both are incremented outside the cache lock.
	compiles atomic.Uint64
	shards   atomic.Uint64
	// panics counts evaluation panics recovered into per-request errors
	// (see ErrPanic).
	panics atomic.Uint64
	// memoScale is the current soft-memory-watermark scale as float64
	// bits (1.0 at rest); see SetMemoScale.
	memoScale atomic.Uint64

	mu    sync.Mutex
	order *list.List // *cacheEntry, front = most recently used
	index map[string]*list.Element
	hits  uint64
	miss  uint64
}

// cacheEntry compiles its plan at most once; concurrent requests for
// the same fresh query block on the entry, not on the whole cache.
// done flips after compilation so stats readers can reach the plan
// without joining an in-flight compile.
type cacheEntry struct {
	key  string
	once sync.Once
	plan *Plan
	word Query
	done atomic.Bool
}

// NewEngine returns an Engine with the given configuration.
func NewEngine(cfg EngineConfig) *Engine {
	if cfg.PlanCacheSize <= 0 {
		cfg.PlanCacheSize = DefaultPlanCacheSize
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	e := &Engine{
		capacity: cfg.PlanCacheSize,
		workers:  cfg.Workers,
		order:    list.New(),
		index:    make(map[string]*list.Element),
	}
	e.memoScale.Store(math.Float64bits(1))
	return e
}

// SetMemoScale sets every cached plan's per-snapshot memo budgets to
// scale × their compile-time defaults, and remembers the scale for
// plans compiled later. This is the serving layer's soft-memory
// watermark: under heap pressure the daemon shrinks the tier memos so
// decisions degrade to cold builds instead of the process growing
// toward an OOM kill; scale >= 1 restores the defaults. Safe to call
// concurrently with evaluation.
func (e *Engine) SetMemoScale(scale float64) {
	if scale < 0 {
		scale = 0
	}
	e.memoScale.Store(math.Float64bits(scale))
	// Collect the finished plans under the cache lock, apply outside it:
	// SetMemoScale evicts under each memo's own lock and must not hold
	// the engine lock while doing so.
	e.mu.Lock()
	plans := make([]*Plan, 0, e.order.Len())
	for el := e.order.Front(); el != nil; el = el.Next() {
		if entry := el.Value.(*cacheEntry); entry.done.Load() {
			plans = append(plans, entry.plan)
		}
	}
	e.mu.Unlock()
	for _, p := range plans {
		p.SetMemoScale(scale)
	}
}

// MemoScale returns the current soft-memory-watermark scale (1.0 at
// rest).
func (e *Engine) MemoScale() float64 {
	return math.Float64frombits(e.memoScale.Load())
}

// Compile returns the cached plan for q, compiling it on first use.
func (e *Engine) Compile(q Query) *Plan {
	key := q.Key()
	e.mu.Lock()
	if el, ok := e.index[key]; ok {
		e.order.MoveToFront(el)
		e.hits++
		entry := el.Value.(*cacheEntry)
		e.mu.Unlock()
		return e.compileEntry(entry)
	}
	e.miss++
	entry := &cacheEntry{key: key, word: q}
	e.index[key] = e.order.PushFront(entry)
	for e.order.Len() > e.capacity {
		oldest := e.order.Back()
		e.order.Remove(oldest)
		delete(e.index, oldest.Value.(*cacheEntry).key)
	}
	e.mu.Unlock()
	return e.compileEntry(entry)
}

// compileEntry runs the entry's at-most-once compilation outside the
// cache lock: a slow compilation (e.g. the DFA certification of an NL
// decomposition) must not serialize the whole engine. Plans already
// evicted remain usable by holders.
func (e *Engine) compileEntry(entry *cacheEntry) *Plan {
	entry.once.Do(func() {
		entry.plan = plan.Compile(entry.word.Word())
		if scale := e.MemoScale(); scale < 1 {
			// Born under memory pressure: start with shrunk memo budgets
			// rather than defaults the watermark would claw back anyway.
			entry.plan.SetMemoScale(scale)
		}
		e.compiles.Add(1)
		entry.done.Store(true)
	})
	return entry.plan
}

// execute runs one decision with a recover() boundary: a panicking
// evaluation — a bug, or an injected fault in the chaos soak — becomes
// a per-request ErrPanic instead of killing the process, and the
// panics counter records it. The deferred recover costs nothing on the
// non-panicking path.
func (e *Engine) execute(ctx context.Context, p *Plan, db *Instance, opts Options) (res Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			e.panics.Add(1)
			err = fmt.Errorf("%w: %v", ErrPanic, r)
		}
	}()
	return p.ExecuteCtx(ctx, db, opts)
}

// Certain decides CERTAINTY(q) on db with automatic tier dispatch,
// reusing the cached plan for q.
func (e *Engine) Certain(q Query, db *Instance) Result {
	return e.Compile(q).Certain(db)
}

// CertainOpt decides CERTAINTY(q) on db with explicit options, reusing
// the cached plan for q.
func (e *Engine) CertainOpt(q Query, db *Instance, opts Options) (Result, error) {
	return e.Compile(q).Execute(db, opts)
}

// CertainCtx is Certain bounded by a context. Cancellation is polled
// inside the coNP tier's CDCL search loop — the only place a single
// decision can run long — so canceling ctx releases a caller stuck in
// a hard SAT instance; the other tiers finish their (micro-second)
// decision and return it. On cancellation the error is ctx.Err() and
// the Result carries no decision. Compiled plans and memoized solver
// state survive a cancellation: a retry resumes warm, with everything
// the interrupted solve learned.
// A panicking decision is recovered into a per-request ErrPanic (see
// execute); the context-free twins propagate panics unchanged.
func (e *Engine) CertainCtx(ctx context.Context, q Query, db *Instance) (Result, error) {
	return e.execute(ctx, e.Compile(q), db, Options{})
}

// CertainOptCtx is CertainOpt bounded by a context; see CertainCtx for
// the cancellation and panic-isolation contract.
func (e *Engine) CertainOptCtx(ctx context.Context, q Query, db *Instance, opts Options) (Result, error) {
	return e.execute(ctx, e.Compile(q), db, opts)
}

// Request is one (query, instance) pair of a batch.
type Request struct {
	Query   Query
	DB      *Instance
	Options Options
}

// CertainBatch evaluates all requests concurrently on the engine's
// worker pool and returns one Result per request, in request order.
// Distinct requests for the same query word share a single compiled
// plan; see the package comment for the two-phase sharded scheduling.
// A request that cannot be evaluated — its options force an unsound
// tier, or ctx is cancelled before it runs — gets its Err field set
// instead of a decision; the remaining requests are unaffected.
func (e *Engine) CertainBatch(ctx context.Context, reqs []Request) []Result {
	out := make([]Result, len(reqs))
	if len(reqs) == 0 {
		return out
	}
	if ctx == nil {
		ctx = context.Background()
	}
	e.certainBatchSharded(ctx, reqs, out)
	return out
}

// batchShard is one unit of sharded dispatch: a compiled plan plus a
// snapshot-affine run of request indexes.
type batchShard struct {
	plan *Plan
	idxs []int
}

// batchGroup is the pre-pass grouping of a batch: all request indexes
// sharing one query word, in input order until affineOrder regroups
// them into per-instance runs.
type batchGroup struct {
	query Query
	idxs  []int
}

// certainBatchSharded is the two-phase scheduler: compile workers pull
// word groups, resolve each group's plan (concurrently across groups,
// at most once per word via the plan cache), cut the group into
// snapshot-affine shards, and feed them to the evaluation workers — so
// evaluation never blocks inside plan.Compile, and requests against the
// same interned snapshot run consecutively, hitting the tier memos warm.
func (e *Engine) certainBatchSharded(ctx context.Context, reqs []Request, out []Result) {
	byWord := make(map[string]*batchGroup)
	var groups []*batchGroup
	for i, r := range reqs {
		key := r.Query.Key()
		g := byWord[key]
		if g == nil {
			g = &batchGroup{query: r.Query}
			byWord[key] = g
			groups = append(groups, g)
		}
		g.idxs = append(g.idxs, i)
	}
	for _, g := range groups {
		g.idxs = affineOrder(reqs, g.idxs)
	}

	workers := e.workers
	if workers > len(reqs) {
		workers = len(reqs)
	}
	shardCh := make(chan batchShard)
	var evalWG sync.WaitGroup
	evalWG.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer evalWG.Done()
			for sh := range shardCh {
				for _, i := range sh.idxs {
					if err := ctx.Err(); err != nil {
						out[i].Err = err
						continue
					}
					res, err := e.execute(ctx, sh.plan, reqs[i].DB, reqs[i].Options)
					res.Err = err
					out[i] = res
				}
			}
		}()
	}

	// Compile phase: groups are claimed by an atomic cursor so a slow
	// compilation holds back only its own group's shards; every other
	// word keeps flowing to the evaluation workers. On cancellation the
	// remaining groups are still drained, so every undispatched request
	// gets its Err set exactly once.
	compilers := e.workers
	if compilers > len(groups) {
		compilers = len(groups)
	}
	var cursor atomic.Int64
	var compileWG sync.WaitGroup
	compileWG.Add(compilers)
	for c := 0; c < compilers; c++ {
		go func() {
			defer compileWG.Done()
			for {
				n := int(cursor.Add(1)) - 1
				if n >= len(groups) {
					return
				}
				g := groups[n]
				if err := ctx.Err(); err != nil {
					for _, i := range g.idxs {
						out[i].Err = err
					}
					continue
				}
				p := e.Compile(g.query)
				for lo := 0; lo < len(g.idxs); {
					hi := lo + batchShardSize
					if hi > len(g.idxs) {
						hi = len(g.idxs)
					}
					select {
					case shardCh <- batchShard{plan: p, idxs: g.idxs[lo:hi]}:
						e.shards.Add(1)
						lo = hi
					case <-ctx.Done():
						for _, i := range g.idxs[lo:] {
							out[i].Err = ctx.Err()
						}
						lo = len(g.idxs)
					}
				}
			}
		}()
	}
	compileWG.Wait()
	close(shardCh)
	evalWG.Wait()
}

// affineOrder regroups one word group's request indexes so indexes
// sharing an instance are consecutive (runs ordered by first
// appearance, stable within a run). Same *Instance means same interned
// snapshot for the duration of the batch, so consecutive dispatch turns
// the per-snapshot tier memos into warm hits instead of contended — or,
// past the memo LRU bound, thrashing — build-once entries.
func affineOrder(reqs []Request, idxs []int) []int {
	if len(idxs) < 2 {
		return idxs
	}
	runs := make(map[*Instance][]int)
	var order []*Instance
	for _, i := range idxs {
		db := reqs[i].DB
		if _, ok := runs[db]; !ok {
			order = append(order, db)
		}
		runs[db] = append(runs[db], i)
	}
	if len(order) == len(idxs) {
		return idxs // no instance appears twice; input order is affine
	}
	affine := idxs[:0]
	for _, db := range order {
		affine = append(affine, runs[db]...)
	}
	return affine
}

// defaultEngine backs the package-level Certain/CertainOpt/CertainBatch
// facade.
var defaultEngine = NewEngine(EngineConfig{})

// DefaultEngine returns the shared engine behind the package-level
// facade functions.
func DefaultEngine() *Engine { return defaultEngine }

// CompilePlan compiles (and caches on the default engine) the plan for
// q.
func CompilePlan(q Query) *Plan { return defaultEngine.Compile(q) }

// CertainBatch evaluates the requests concurrently on the default
// engine; see Engine.CertainBatch.
func CertainBatch(ctx context.Context, reqs []Request) []Result {
	return defaultEngine.CertainBatch(ctx, reqs)
}
