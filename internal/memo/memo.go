// Package memo provides a small bounded LRU memo used by the solver
// tiers to cache instance-bound artifacts per interned instance
// snapshot (*instance.Interned). The key is compared by identity, so a
// mutation of the underlying instance — which publishes a fresh
// snapshot pointer — is itself the invalidation: stale entries can
// never be looked up again and age out of the LRU order.
//
// Memos are bounded two ways: by entry count, and (optionally) by a
// byte budget with a per-entry cost function, so that a handful of
// huge artifacts — a conp CNF is O(|db|·|q|), a fixpoint binding
// O(|q|·|adom|) — cannot pin unbounded memory behind a small entry
// count.
package memo

import (
	"container/list"
	"errors"
	"sync"
	"sync/atomic"

	"cqa/internal/faultinject"
	"cqa/internal/instance"
)

// ErrBuildPanicked is the panic value delivered to a caller that joined
// an in-flight artifact build which itself panicked: the panicking
// builder unwinds with its own panic value, the entry is removed from
// the memo (a later lookup rebuilds), and every goroutine that was
// blocked on the same entry panics with this sentinel so a recover()
// boundary upstream can answer the affected requests individually.
var ErrBuildPanicked = errors.New("memo: joined an artifact build that panicked")

// LRU is a bounded build-once memo. Get returns the cached value for a
// key, building it at most once per residency; when either bound (entry
// count, or the optional byte budget) is exceeded the least-recently-
// used entries are evicted. An LRU is safe for concurrent use; builds
// run outside the memo lock, so a slow build for one key never
// serializes lookups of other keys.
type LRU[K comparable, V any] struct {
	capacity int
	budget   int64 // 0 = unbounded by cost
	cost     func(V) int64

	mu       sync.Mutex
	order    *list.List // *entry[K, V], front = most recently used
	index    map[K]*list.Element
	total    int64 // summed cost of charged resident entries
	hits     uint64
	miss     uint64
	repairs  uint64
	maxDepth uint64
}

// Stats is a snapshot of an LRU's lookup counters. A miss is a lookup
// that created a resident entry (and therefore ran — or joined — the
// build); a hit served an already-resident entry. A key that was
// evicted and looked up again counts as a fresh miss, so Misses is
// exactly the number of entry builds started over the memo's lifetime.
//
// Repairs counts the misses that were satisfied by repairing a resident
// ancestor's artifact along the snapshot lineage (GetOrRepair) instead
// of running the cold builder, so Misses − Repairs is the number of
// cold builds. MaxLineageDepth is the largest lineage distance (delta
// hops between the missed snapshot and the repaired-from ancestor) any
// repair has crossed.
type Stats struct {
	Hits, Misses    uint64
	Repairs         uint64
	MaxLineageDepth uint64
}

// ColdBuilds returns the number of misses that ran the from-scratch
// builder rather than a lineage repair.
func (s Stats) ColdBuilds() uint64 { return s.Misses - s.Repairs }

// Add returns the aggregate of two stats snapshots, for callers
// combining several memos (e.g. a plan's tier artifacts): counters sum,
// MaxLineageDepth takes the maximum.
func (s Stats) Add(t Stats) Stats {
	out := Stats{
		Hits:            s.Hits + t.Hits,
		Misses:          s.Misses + t.Misses,
		Repairs:         s.Repairs + t.Repairs,
		MaxLineageDepth: s.MaxLineageDepth,
	}
	if t.MaxLineageDepth > out.MaxLineageDepth {
		out.MaxLineageDepth = t.MaxLineageDepth
	}
	return out
}

// entry builds its value at most once; concurrent Gets for the same key
// block on the entry, not on the whole memo.
type entry[K comparable, V any] struct {
	key  K
	once sync.Once
	val  V
	// cost accounting happens after the build (the value must exist to
	// be costed); evicted guards an entry whose build finished after it
	// was already displaced, so it is never charged to the total.
	// charged is atomic so warm hits skip the accounting lock entirely.
	cost    int64
	charged atomic.Bool
	evicted bool
	// built is set after once completes, so Peek can serve finished
	// values without blocking on (or deadlocking with) an in-flight
	// build that is itself peeking for ancestors.
	built atomic.Bool
}

// NewLRU returns an LRU bounded at capacity entries (minimum 1), with
// no byte budget.
func NewLRU[K comparable, V any](capacity int) *LRU[K, V] {
	return NewLRUWithBudget[K, V](capacity, 0, nil)
}

// NewLRUWithBudget returns an LRU bounded at capacity entries AND at
// budget summed cost units (conventionally bytes), where cost prices a
// built value. A budget <= 0 or a nil cost function disables the cost
// bound. A single entry over budget stays resident on its own — the
// memo never evicts the only entry, so a pathologically large artifact
// still serves warm calls instead of thrashing.
func NewLRUWithBudget[K comparable, V any](capacity int, budget int64, cost func(V) int64) *LRU[K, V] {
	if capacity < 1 {
		capacity = 1
	}
	if budget <= 0 || cost == nil {
		budget, cost = 0, nil
	}
	return &LRU[K, V]{
		capacity: capacity,
		budget:   budget,
		cost:     cost,
		order:    list.New(),
		index:    make(map[K]*list.Element),
	}
}

// Get returns the memoized value for key, invoking build at most once
// while the key is resident. An evicted value remains usable by callers
// that already hold it; a later Get for the same key rebuilds.
func (m *LRU[K, V]) Get(key K, build func() V) V {
	e, _ := m.acquire(key)
	return m.run(e, build)
}

// GetOrRepair is Get with a lineage-aware miss path: on a miss it first
// offers repair the chance to derive the value from resident entries
// (via the peek argument — typically the tier walks the snapshot's
// delta lineage with instance.Lineage and patches the nearest resident
// ancestor's artifact). repair returns the derived value, the number of
// lineage hops it crossed (feeding Stats.MaxLineageDepth), and whether
// it succeeded; on failure — or with a nil repair — the cold builder
// runs as in Get. Like build, repair executes outside the memo lock and
// at most once per residency of key; values obtained through peek may
// be concurrently evicted, which leaves them valid (evicted values stay
// usable by holders, they just no longer occupy the memo).
func (m *LRU[K, V]) GetOrRepair(key K, repair func(peek func(K) (V, bool)) (V, int, bool), build func() V) V {
	e, hit := m.acquire(key)
	if hit || repair == nil {
		return m.run(e, build)
	}
	return m.run(e, func() V {
		// An injected repair fault degrades to the cold builder — the
		// graceful path a real repair failure would take.
		if err := faultinject.Fire(faultinject.MemoRepair); err == nil {
			if v, hops, ok := repair(m.Peek); ok {
				m.noteRepair(hops)
				return v
			}
		}
		return build()
	})
}

// GetLineage is GetOrRepair for a memo keyed by interned snapshots: on
// a miss it walks iv's delta lineage (instance.Lineage) to the nearest
// ancestor whose value is resident and hands that value, with every
// block touched since, to repair. A repair that declines (ok false), or
// a lineage with no resident ancestor, falls back to build.
func GetLineage[V any](m *LRU[*instance.Interned, V], iv *instance.Interned,
	repair func(parent V, touched []instance.BlockRef) (V, bool), build func() V) V {
	return m.GetOrRepair(iv, func(peek func(*instance.Interned) (V, bool)) (V, int, bool) {
		var found V
		anc, touched, ok := instance.Lineage(iv, func(a *instance.Interned) bool {
			v, res := peek(a)
			if res {
				found = v
			}
			return res
		})
		if !ok {
			return found, 0, false
		}
		v, ok := repair(found, touched)
		return v, iv.LineageDepth() - anc.LineageDepth(), ok
	}, build)
}

// Peek returns the finished value for key if one is resident, without
// joining an in-flight build and without counting as a hit or a miss.
// Safe to call from inside a repair callback.
func (m *LRU[K, V]) Peek(key K) (V, bool) {
	var zero V
	m.mu.Lock()
	el, ok := m.index[key]
	m.mu.Unlock()
	if !ok {
		return zero, false
	}
	e := el.Value.(*entry[K, V])
	if !e.built.Load() {
		return zero, false
	}
	return e.val, true
}

// acquire looks up or creates the entry for key under the memo lock and
// reports whether it was already resident.
func (m *LRU[K, V]) acquire(key K) (*entry[K, V], bool) {
	m.mu.Lock()
	el, ok := m.index[key]
	if ok {
		m.hits++
		m.order.MoveToFront(el)
	} else {
		m.miss++
		el = m.order.PushFront(&entry[K, V]{key: key})
		m.index[key] = el
		for m.order.Len() > m.capacity {
			m.evictOldest()
		}
	}
	e := el.Value.(*entry[K, V])
	m.mu.Unlock()
	return e, ok
}

// run executes the entry's at-most-once build with the given producer
// and settles cost accounting.
//
// A build that panics must not poison the entry: sync.Once considers a
// panicking function done, so without cleanup every later lookup of the
// key would get the zero value forever — one panicking decision would
// turn into a permanently broken snapshot. Instead the failed entry is
// removed from the memo (the next lookup is a fresh miss that rebuilds)
// while the panic keeps unwinding to the caller's recover() boundary;
// goroutines that joined the failed build panic with ErrBuildPanicked.
func (m *LRU[K, V]) run(e *entry[K, V], produce func() V) V {
	e.once.Do(func() {
		defer func() {
			if !e.built.Load() {
				m.removeFailed(e)
			}
		}()
		// A site with no error path escalates an injected error to a
		// panic; the recover() boundary upstream answers per-request.
		if err := faultinject.Fire(faultinject.MemoBuild); err != nil {
			panic(err)
		}
		e.val = produce()
		e.built.Store(true)
	})
	if !e.built.Load() {
		panic(ErrBuildPanicked)
	}
	if m.cost != nil && !e.charged.Load() {
		m.charge(e)
	}
	return e.val
}

// removeFailed drops an entry whose build panicked, so the key misses
// (and rebuilds) on its next lookup. The failed build never charged any
// cost, so only residency is undone.
func (m *LRU[K, V]) removeFailed(e *entry[K, V]) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if e.evicted {
		return
	}
	if el, ok := m.index[e.key]; ok && el.Value.(*entry[K, V]) == e {
		m.order.Remove(el)
		delete(m.index, e.key)
		e.evicted = true
	}
}

// noteRepair records a successful lineage repair of the given hop
// distance.
func (m *LRU[K, V]) noteRepair(hops int) {
	m.mu.Lock()
	m.repairs++
	if uint64(hops) > m.maxDepth {
		m.maxDepth = uint64(hops)
	}
	m.mu.Unlock()
}

// evictOldest removes the least-recently-used entry. Caller holds mu.
func (m *LRU[K, V]) evictOldest() {
	oldest := m.order.Back()
	if oldest == nil {
		return
	}
	m.order.Remove(oldest)
	en := oldest.Value.(*entry[K, V])
	delete(m.index, en.key)
	en.evicted = true
	if en.charged.Load() {
		m.total -= en.cost
	}
}

// charge records a freshly built entry's cost and sheds LRU entries
// until the memo fits its budget again (never below one resident
// entry). An entry evicted while its build was in flight is not
// charged: its value goes to the caller but holds no residency.
func (m *LRU[K, V]) charge(e *entry[K, V]) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if e.evicted || e.charged.Load() {
		return
	}
	//cqalint:allow nolockbuild cost functions are pure size accountants by contract (LRU doc comment); charging outside the lock would race eviction
	e.cost = m.cost(e.val)
	e.charged.Store(true)
	m.total += e.cost
	for m.total > m.budget && m.order.Len() > 1 {
		m.evictOldest()
	}
}

// SetBudget adjusts the byte budget of a cost-bounded memo at runtime —
// the soft-memory-watermark hook: under heap pressure the serving layer
// shrinks the tier memos so the process degrades to cold builds instead
// of growing toward an OOM kill. Shrinking evicts least-recently-used
// entries until the memo fits (never below one resident entry, matching
// the construction-time contract); growing simply raises the bound. A
// memo built without a cost function has nothing to bound and ignores
// the call. The budget is clamped to at least 1 so the cost bound stays
// armed.
func (m *LRU[K, V]) SetBudget(budget int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.cost == nil {
		return
	}
	if budget < 1 {
		budget = 1
	}
	m.budget = budget
	for m.total > m.budget && m.order.Len() > 1 {
		m.evictOldest()
	}
}

// ScaledBudget maps a compile-time default budget and a pressure scale
// to a SetBudget argument, clamped to [1, def]: the soft-memory
// watermark only ever shrinks a memo below its default (scale >= 1
// restores it), and the minimum of 1 keeps the cost bound armed.
func ScaledBudget(def int64, scale float64) int64 {
	if scale >= 1 {
		return def
	}
	b := int64(float64(def) * scale)
	if b < 1 {
		b = 1
	}
	return b
}

// Budget returns the current byte budget (0 when the memo has no cost
// function).
func (m *LRU[K, V]) Budget() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.budget
}

// Stats returns a snapshot of the memo's lookup counters.
func (m *LRU[K, V]) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return Stats{Hits: m.hits, Misses: m.miss, Repairs: m.repairs, MaxLineageDepth: m.maxDepth}
}

// Contains reports whether key is resident (without touching the LRU
// order). Intended for tests.
func (m *LRU[K, V]) Contains(key K) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	_, ok := m.index[key]
	return ok
}

// Len returns the number of resident entries.
func (m *LRU[K, V]) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.order.Len()
}

// CostTotal returns the summed cost of the charged resident entries
// (always 0 without a cost function). Intended for tests and
// diagnostics.
func (m *LRU[K, V]) CostTotal() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.total
}
