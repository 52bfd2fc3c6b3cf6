package cqa

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Registry errors.
var (
	// ErrInstanceExists is returned by Register for a name already taken.
	ErrInstanceExists = errors.New("cqa: instance already registered")
	// ErrInstanceNotFound is returned for operations on an unknown name.
	ErrInstanceNotFound = errors.New("cqa: instance not found")
)

// Registry holds named, long-lived instances for serving workloads: the
// `cqa serve` daemon registers an instance once and then streams
// queries and mutations against it by name, so the engine's
// per-snapshot memos stay warm across requests instead of being rebuilt
// per process. A Registry is safe for concurrent use.
//
// Concurrency contract: an Instance is safe for concurrent reads but a
// mutation must not race with readers or other mutations, so the
// registry wraps each instance in a read-write lock — queries evaluate
// under the read lock (any number in parallel), Mutate takes the write
// lock. Each mutation publishes a fresh interned snapshot that is a
// structural delta of its parent, so the first post-mutation decision
// is a lineage repair of the warm memo entry, not a cold build; the
// lineage depth in InstanceInfo exposes how far the current snapshot
// has drifted from its last cold build.
type Registry struct {
	eng *Engine

	mu    sync.RWMutex
	insts map[string]*managed
}

// managed is one registered instance plus its lock and counters.
type managed struct {
	name string
	// mu orders mutations against reads; the registry's own map lock is
	// never held during evaluation.
	mu sync.RWMutex
	db *Instance

	queries   atomic.Uint64
	mutations atomic.Uint64
}

// InstanceInfo is a point-in-time description of a registered instance.
type InstanceInfo struct {
	Name string `json:"name"`
	// Facts is the current fact count.
	Facts int `json:"facts"`
	// LineageDepth is the delta-chain length from the current interned
	// snapshot back to its nearest ancestral full snapshot: 0 right
	// after registration, +1 per mutation batch until a tier memo
	// collapses the chain with a cold build.
	LineageDepth int `json:"lineage_depth"`
	// Queries and Mutations count operations served since registration.
	Queries   uint64 `json:"queries"`
	Mutations uint64 `json:"mutations"`
}

// Mutation is one atomic batch of fact changes applied by
// Registry.Mutate: removals first, then additions, under one write
// lock, publishing a single new snapshot.
type Mutation struct {
	Add    []Fact `json:"add,omitempty"`
	Remove []Fact `json:"remove,omitempty"`
}

// NewRegistry returns a Registry evaluating on eng; a nil eng gets a
// default-configured engine.
func NewRegistry(eng *Engine) *Registry {
	if eng == nil {
		eng = NewEngine(EngineConfig{})
	}
	return &Registry{eng: eng, insts: make(map[string]*managed)}
}

// Engine returns the engine the registry evaluates on.
func (r *Registry) Engine() *Engine { return r.eng }

// Register adds db under name. The registry takes ownership of db: the
// caller must not mutate it directly afterwards (use Mutate, which
// orders mutations against in-flight queries).
func (r *Registry) Register(name string, db *Instance) error {
	if name == "" {
		return fmt.Errorf("cqa: empty instance name")
	}
	if db == nil {
		db = NewInstance()
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.insts[name]; ok {
		return fmt.Errorf("%w: %q", ErrInstanceExists, name)
	}
	r.insts[name] = &managed{name: name, db: db}
	return nil
}

// Drop removes the named instance, reporting whether it existed.
// In-flight operations on it complete normally.
func (r *Registry) Drop(name string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.insts[name]; !ok {
		return false
	}
	delete(r.insts, name)
	return true
}

// Names returns the registered names, sorted.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.insts))
	for name := range r.insts {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Has reports whether name is registered.
func (r *Registry) Has(name string) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.insts[name] != nil
}

func (r *Registry) lookup(name string) (*managed, error) {
	r.mu.RLock()
	m := r.insts[name]
	r.mu.RUnlock()
	if m == nil {
		return nil, fmt.Errorf("%w: %q", ErrInstanceNotFound, name)
	}
	return m, nil
}

// Info returns the named instance's description.
func (r *Registry) Info(name string) (InstanceInfo, error) {
	m, err := r.lookup(name)
	if err != nil {
		return InstanceInfo{}, err
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.info(), nil
}

// info snapshots the counters; callers hold m.mu (either mode).
func (m *managed) info() InstanceInfo {
	return InstanceInfo{
		Name:         m.name,
		Facts:        m.db.Size(),
		LineageDepth: m.db.Interned().LineageDepth(),
		Queries:      m.queries.Load(),
		Mutations:    m.mutations.Load(),
	}
}

// Infos returns the description of every registered instance, sorted
// by name — the registry section of the serve daemon's /metrics.
func (r *Registry) Infos() []InstanceInfo {
	names := r.Names()
	infos := make([]InstanceInfo, 0, len(names))
	for _, name := range names {
		if info, err := r.Info(name); err == nil {
			infos = append(infos, info)
		}
	}
	return infos
}

// Query decides CERTAINTY(q) on the named instance under its read
// lock, so it never observes a half-applied mutation.
func (r *Registry) Query(ctx context.Context, name string, q Query, opts Options) (Result, error) {
	m, err := r.lookup(name)
	if err != nil {
		return Result{}, err
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	m.queries.Add(1)
	return r.eng.CertainOptCtx(ctx, q, m.db, opts)
}

// BatchItem is one query of a QueryBatchItems run, optionally carrying
// its own deadline. A zero Deadline means the batch context alone
// governs the item.
type BatchItem struct {
	Query Query
	// Deadline is the item's absolute deadline. An item whose deadline
	// has already passed when its turn comes — typically because the
	// batch sat in a serving queue — is answered with a deadline error
	// without being evaluated: no memo lookup, no cold build, no query
	// counted.
	Deadline time.Time
}

// QueryBatchItems decides a run of queries against the named instance
// under one read lock acquisition, sequentially: consecutive decisions
// on the same snapshot are exactly the memo-warm pattern the engine's
// snapshot-affine sharding produces, without cross-worker handoff for
// what is a single caller's stream. It is the serve daemon's NDJSON
// batch path, where each request line may carry its own timeout_ms: an
// item with a live deadline evaluates under a context bounded by it
// (its expiry errors only that item), while an item whose deadline has
// already passed is answered with context.DeadlineExceeded without ever
// being evaluated. Evaluation stops at the first batch-context error;
// results before it are returned with a short count.
func (r *Registry) QueryBatchItems(ctx context.Context, name string, items []BatchItem, opts Options) ([]Result, error) {
	m, err := r.lookup(name)
	if err != nil {
		return nil, err
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]Result, 0, len(items))
	for _, it := range items {
		ictx := ctx
		var cancel context.CancelFunc
		if !it.Deadline.IsZero() {
			if !time.Now().Before(it.Deadline) {
				out = append(out, Result{Err: fmt.Errorf("deadline expired before evaluation: %w", context.DeadlineExceeded)})
				continue
			}
			ictx, cancel = context.WithDeadline(ctx, it.Deadline)
		}
		res, err := r.eng.CertainOptCtx(ictx, it.Query, m.db, opts)
		if cancel != nil {
			cancel()
		}
		if err != nil && ctx.Err() != nil {
			return out, err
		}
		m.queries.Add(1)
		res.Err = err
		out = append(out, res)
	}
	return out, nil
}

// Mutate applies the mutation atomically under the instance's write
// lock: removals, then additions, publishing one new interned snapshot
// that the tier memos repair from its parent on the next decision. It
// returns the post-mutation description.
func (r *Registry) Mutate(name string, mut Mutation) (InstanceInfo, error) {
	m, err := r.lookup(name)
	if err != nil {
		return InstanceInfo{}, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, f := range mut.Remove {
		m.db.Remove(f)
	}
	for _, f := range mut.Add {
		m.db.Add(f)
	}
	m.mutations.Add(1)
	return m.info(), nil
}
