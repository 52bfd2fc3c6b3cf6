// Package server is the resident serving daemon behind `cqa serve`: a
// long-lived HTTP/NDJSON front end over a cqa.Registry of named
// instances, with a persistent shard router that pins every instance to
// one resident worker for the lifetime of the process.
//
// The router is the piece that makes residency pay. The engine's
// CertainBatch already shards one batch snapshot-affinely, but a batch
// is a single call: at every chunk boundary of a streamed workload the
// affinity resets, and two concurrent connections touching the same
// instance race each other into the per-snapshot tier memos. The
// router's instance→worker assignment is created on first touch
// (least-assigned worker wins) and then never moves until the instance
// is dropped, so every operation on a named instance — query, batch
// chunk, mutation — executes on the same goroutine end-to-end: decisions against one
// snapshot run consecutively (warm memo hits), a mutation is followed
// on the same worker by the lineage repair of its own memo entry, and
// the per-worker queues give the daemon bounded admission instead of
// unbounded goroutine fan-out.
//
// # Admission control
//
// The router runs two lanes. The fast lane is the sticky per-instance
// workers above, sized for warm PTIME/NL decisions that finish in
// micro-seconds. The heavy lane is a separate, smaller pool fed by one
// shared queue, onto which the server routes coNP/SAT-bound requests —
// classification already tells the tier at compile time, and a hard
// SAT decision is ~1000x a warm lookup, so letting it queue behind
// warm work (or occupy a sticky worker) would stall an entire
// instance's stream. Both lanes reject instead of blocking when their
// queue is full (ErrOverloaded → HTTP 429), and both check the
// request's context at dequeue time: a request whose deadline expired
// while it sat in the queue is shed with ErrExpiredInQueue without
// ever being evaluated. A panicking request is recovered at the worker
// boundary and answered with ErrWorkerPanic; the worker, the instance,
// and the daemon stay alive.
package server

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"cqa/internal/faultinject"
)

// Router errors. ErrExpiredInQueue wraps the request context's error,
// so errors.Is(err, context.DeadlineExceeded) still holds for shed
// requests.
var (
	// ErrDraining is returned by Do/DoHeavy once Drain has begun.
	ErrDraining = errors.New("server: router draining")
	// ErrOverloaded is returned when a lane's queue is full: the request
	// was rejected immediately, never enqueued (HTTP 429 + Retry-After).
	ErrOverloaded = errors.New("server: overloaded, lane queue full")
	// ErrExpiredInQueue is returned for a request whose context expired
	// while it was still queued; the request was never evaluated.
	ErrExpiredInQueue = errors.New("server: deadline expired while queued")
	// ErrWorkerPanic is returned for a request that panicked during
	// evaluation; the panic was recovered at the worker boundary.
	ErrWorkerPanic = errors.New("server: request panicked")
)

// DefaultQueueDepth bounds each fast-lane worker's task queue when
// Config leaves it zero: deep enough to absorb a burst of chunked batch
// submissions, shallow enough that a saturated worker sheds load
// (ErrOverloaded) instead of buffering unbounded work.
const DefaultQueueDepth = 64

// Router is the persistent shard router: a fixed pool of resident
// fast-lane workers with a sticky instance→worker assignment, plus a
// bounded heavy lane for coNP/SAT-bound requests. Safe for concurrent
// use.
type Router struct {
	workers []*worker

	// heavyTasks feeds the heavy-lane pool; heavyWorkers is its size and
	// heavyExecuted counts tasks it completed.
	heavyTasks    chan func()
	heavyWorkers  int
	heavyExecuted atomic.Uint64

	// Admission counters: rejected (queue full, never enqueued), shed
	// (context expired while queued, never evaluated), panics (recovered
	// at a worker boundary).
	rejected atomic.Uint64
	shed     atomic.Uint64
	panics   atomic.Uint64

	mu     sync.Mutex
	assign map[string]int

	// drainMu orders enqueues against Drain: submit holds the read side
	// across its draining check and channel send, Drain takes the write
	// side to flip draining before closing the queues, so a send on a
	// closed channel is impossible.
	drainMu  sync.RWMutex
	draining bool
	wg       sync.WaitGroup
}

// worker is one resident fast-lane goroutine and its bounded queue.
type worker struct {
	tasks    chan func()
	assigned atomic.Int64  // instances routed here (for least-assigned placement)
	executed atomic.Uint64 // tasks completed
}

// NewRouter starts n fast-lane workers (n <= 0 means GOMAXPROCS) with
// per-worker queues of depth queueDepth (<= 0 means DefaultQueueDepth),
// plus heavyWorkers heavy-lane workers (<= 0 means max(1, n/4)) sharing
// one queue of depth heavyQueueDepth (<= 0 means queueDepth).
func NewRouter(n, queueDepth, heavyWorkers, heavyQueueDepth int) *Router {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	if queueDepth <= 0 {
		queueDepth = DefaultQueueDepth
	}
	if heavyWorkers <= 0 {
		heavyWorkers = n / 4
		if heavyWorkers < 1 {
			heavyWorkers = 1
		}
	}
	if heavyQueueDepth <= 0 {
		heavyQueueDepth = queueDepth
	}
	r := &Router{
		workers:      make([]*worker, n),
		heavyTasks:   make(chan func(), heavyQueueDepth),
		heavyWorkers: heavyWorkers,
		assign:       make(map[string]int),
	}
	r.wg.Add(n)
	for i := range r.workers {
		w := &worker{tasks: make(chan func(), queueDepth)}
		r.workers[i] = w
		go func() {
			defer r.wg.Done()
			for fn := range w.tasks {
				fn()
				w.executed.Add(1)
			}
		}()
	}
	r.wg.Add(heavyWorkers)
	for i := 0; i < heavyWorkers; i++ {
		go func() {
			defer r.wg.Done()
			for fn := range r.heavyTasks {
				fn()
				r.heavyExecuted.Add(1)
			}
		}()
	}
	return r
}

// WorkerFor returns the sticky worker index for the named instance,
// assigning the least-loaded worker on first touch. The assignment
// never changes until the name is forgotten (Forget, on drop) — that
// stability is the cross-request memo-affinity contract `cqa serve` is
// built on.
func (r *Router) WorkerFor(name string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if id, ok := r.assign[name]; ok {
		return id
	}
	best := 0
	for i := range r.workers {
		if r.workers[i].assigned.Load() < r.workers[best].assigned.Load() {
			best = i
		}
	}
	r.workers[best].assigned.Add(1)
	r.assign[name] = best
	return best
}

// Forget releases the named instance's sticky assignment; the server
// calls it when the instance is dropped, so register/drop churn
// neither skews least-assigned placement nor grows the assignment
// table. A later touch of the name assigns it afresh. Tasks already
// queued for the name still run on the old worker; the registry's
// per-instance locks keep them safe if the name is re-registered
// meanwhile.
func (r *Router) Forget(name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if id, ok := r.assign[name]; ok {
		delete(r.assign, name)
		r.workers[id].assigned.Add(-1)
	}
}

// Do runs fn on the named instance's resident fast-lane worker and
// waits for it to finish. A full worker queue rejects immediately with
// ErrOverloaded — the request is never enqueued and the connection is
// never blocked. Once enqueued, fn runs unless ctx expires first: an
// expired request is shed at dequeue with ErrExpiredInQueue, without
// fn ever running. A panic inside fn is recovered at the worker
// boundary and returned as ErrWorkerPanic; on a nil error return,
// fn has completed and callers may safely use state it wrote. After
// Drain has begun Do fails with ErrDraining.
func (r *Router) Do(ctx context.Context, name string, fn func()) error {
	return r.submit(ctx, r.workers[r.WorkerFor(name)].tasks, fn)
}

// DoHeavy runs fn on the shared heavy lane — the bounded pool the
// server routes coNP/SAT-bound requests onto so they cannot stall the
// sticky fast-lane workers. Same admission contract as Do.
func (r *Router) DoHeavy(ctx context.Context, fn func()) error {
	return r.submit(ctx, r.heavyTasks, fn)
}

// submit implements both lanes' admission protocol: non-blocking
// enqueue (full queue → ErrOverloaded), deadline check at dequeue
// (expired → shed, fn never runs), recover() around fn (panic →
// ErrWorkerPanic, worker survives).
func (r *Router) submit(ctx context.Context, queue chan<- func(), fn func()) error {
	// Chaos failpoint: a fault here models losing the request between
	// the connection goroutine and the lane (per-request error, nothing
	// enqueued).
	if err := faultinject.Fire(faultinject.RouterHandoff); err != nil {
		return err
	}
	done := make(chan struct{})
	var taskErr error
	wrapped := func() {
		defer close(done)
		if err := ctx.Err(); err != nil {
			// Deadline-aware queueing: the deadline expired while this
			// request sat in the queue. Answer it without evaluating —
			// no memo hit, no cold build, no stats attributed.
			r.shed.Add(1)
			taskErr = fmt.Errorf("%w: %w", ErrExpiredInQueue, err)
			return
		}
		defer func() {
			if p := recover(); p != nil {
				r.panics.Add(1)
				taskErr = fmt.Errorf("%w: %v", ErrWorkerPanic, p)
			}
		}()
		fn()
	}
	r.drainMu.RLock()
	if r.draining {
		r.drainMu.RUnlock()
		return ErrDraining
	}
	select {
	case queue <- wrapped:
		r.drainMu.RUnlock()
	default:
		r.drainMu.RUnlock()
		r.rejected.Add(1)
		return ErrOverloaded
	}
	<-done
	return taskErr
}

// Drain stops accepting new work, waits for every queued task to
// finish, and stops the workers of both lanes. Idempotent; concurrent
// submissions either enqueue before the cutover (their task completes
// before Drain returns) or get ErrDraining. Drain never deadlocks
// against a saturated lane: enqueues are non-blocking, so no producer
// can be parked on a queue the workers are draining.
func (r *Router) Drain() {
	r.drainMu.Lock()
	already := r.draining
	r.draining = true
	r.drainMu.Unlock()
	if !already {
		for _, w := range r.workers {
			close(w.tasks)
		}
		close(r.heavyTasks)
	}
	r.wg.Wait()
}

// InFlight returns the number of tasks currently queued across both
// lanes — what a drain timeout abandons, logged by `cqa serve` on a
// failed shutdown.
func (r *Router) InFlight() int {
	n := len(r.heavyTasks)
	for _, w := range r.workers {
		n += len(w.tasks)
	}
	return n
}

// WorkerStats is one resident worker's live counters.
type WorkerStats struct {
	// Queued is the current queue depth (tasks waiting, not the one
	// executing); Executed counts tasks completed since start.
	Queued    int    `json:"queued"`
	Executed  uint64 `json:"executed"`
	Instances int64  `json:"instances"`
}

// LaneStats is the heavy lane's live counters.
type LaneStats struct {
	Workers  int    `json:"workers"`
	Queued   int    `json:"queued"`
	Executed uint64 `json:"executed"`
}

// RouterStats is the router section of /metrics: per-worker queue
// depths, the sticky assignment table (which the serving e2e tests
// read to assert that routing stayed stable across batch boundaries),
// the heavy lane, and the admission counters.
type RouterStats struct {
	Workers     []WorkerStats  `json:"workers"`
	Assignments map[string]int `json:"assignments"`
	Heavy       LaneStats      `json:"heavy"`
	// Rejected counts requests refused with ErrOverloaded (full lane
	// queue, never enqueued); Shed counts requests whose deadline
	// expired while queued (never evaluated); Panics counts panicking
	// requests recovered at a worker boundary.
	Rejected uint64 `json:"rejected"`
	Shed     uint64 `json:"shed"`
	Panics   uint64 `json:"panics"`
}

// Stats snapshots the router counters.
func (r *Router) Stats() RouterStats {
	s := RouterStats{
		Workers:     make([]WorkerStats, len(r.workers)),
		Assignments: make(map[string]int),
		Heavy: LaneStats{
			Workers:  r.heavyWorkers,
			Queued:   len(r.heavyTasks),
			Executed: r.heavyExecuted.Load(),
		},
		Rejected: r.rejected.Load(),
		Shed:     r.shed.Load(),
		Panics:   r.panics.Load(),
	}
	for i, w := range r.workers {
		s.Workers[i] = WorkerStats{
			Queued:    len(w.tasks),
			Executed:  w.executed.Load(),
			Instances: w.assigned.Load(),
		}
	}
	r.mu.Lock()
	for name, id := range r.assign {
		s.Assignments[name] = id
	}
	r.mu.Unlock()
	return s
}

// names returns the assigned instance names, sorted (test helper).
func (s RouterStats) names() []string {
	out := make([]string, 0, len(s.Assignments))
	for name := range s.Assignments {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
