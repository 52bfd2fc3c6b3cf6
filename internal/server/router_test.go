package server

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestRouterStickyAndBalanced(t *testing.T) {
	r := NewRouter(4, 0, 0, 0)
	defer r.Drain()
	perWorker := make(map[int]int)
	for i := 0; i < 16; i++ {
		name := fmt.Sprintf("db%d", i)
		w := r.WorkerFor(name)
		for j := 0; j < 5; j++ {
			if got := r.WorkerFor(name); got != w {
				t.Fatalf("assignment for %s moved: %d then %d", name, w, got)
			}
		}
		perWorker[w]++
	}
	for w, n := range perWorker {
		if n != 4 {
			t.Errorf("worker %d got %d instances, want 4 (least-assigned placement)", w, n)
		}
	}
}

// TestRouterForgetReleasesAssignment: forgetting a name releases its
// worker slot, so register/drop churn leaves no assignment behind and
// least-assigned placement reuses the freed worker.
func TestRouterForgetReleasesAssignment(t *testing.T) {
	r := NewRouter(2, 0, 0, 0)
	defer r.Drain()
	a, b := r.WorkerFor("a"), r.WorkerFor("b")
	if a == b {
		t.Fatalf("a and b share worker %d, want least-assigned placement", a)
	}
	for i := 0; i < 10; i++ {
		name := fmt.Sprintf("churn%d", i)
		if w := r.WorkerFor(name); w != 0 {
			t.Fatalf("%s placed on worker %d, want the freed worker 0", name, w)
		}
		r.Forget(name)
	}
	r.Forget("never-assigned")
	s := r.Stats()
	if got := s.names(); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("assignments after churn = %v, want [a b]", got)
	}
	for i, ws := range s.Workers {
		if ws.Instances != 1 {
			t.Fatalf("worker %d holds %d instances after churn, want 1", i, ws.Instances)
		}
	}
}

// TestRouterSerializesPerInstance checks the affinity contract: tasks
// for one instance run in submission order with no overlap, even when
// submitted from many goroutines (run with -race).
func TestRouterSerializesPerInstance(t *testing.T) {
	r := NewRouter(2, 128, 0, 0)
	defer r.Drain()
	const tasks = 100
	var order []int // appended inside worker tasks; safe iff serialized
	var wg sync.WaitGroup
	var next int
	for i := 0; i < tasks; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.Do(context.Background(), "solo", func() {
				order = append(order, next)
				next++
			})
		}()
	}
	wg.Wait()
	if len(order) != tasks {
		t.Fatalf("ran %d tasks, want %d", len(order), tasks)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("order[%d] = %d: tasks interleaved", i, v)
		}
	}
}

func TestRouterDoWaitsForCompletion(t *testing.T) {
	r := NewRouter(1, 1, 0, 0)
	defer r.Drain()
	done := false
	if err := r.Do(context.Background(), "a", func() {
		time.Sleep(10 * time.Millisecond)
		done = true
	}); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("Do returned before its task completed")
	}
}

// saturate stalls the named instance's fast-lane worker and fills its
// depth-q queue, returning the release channel and the WaitGroup of
// the stalled submissions. On return the worker is parked inside one
// task and q more sit queued, so the next Do must be rejected.
func saturate(t *testing.T, r *Router, name string, q int) (chan struct{}, *sync.WaitGroup) {
	t.Helper()
	release := make(chan struct{})
	started := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		r.Do(context.Background(), name, func() { close(started); <-release })
	}()
	<-started // the worker is now executing the blocker, queue empty
	for i := 0; i < q; i++ {
		wg.Add(1)
		go func() { defer wg.Done(); r.Do(context.Background(), name, func() {}) }()
	}
	w := r.WorkerFor(name)
	deadline := time.Now().Add(5 * time.Second)
	for r.Stats().Workers[w].Queued < q {
		if time.Now().After(deadline) {
			t.Fatal("queue never filled")
		}
		time.Sleep(time.Millisecond)
	}
	return release, &wg
}

// TestRouterQueueFullRejects fills a depth-1 queue behind a stalled
// worker and checks that the next submission is rejected immediately
// with ErrOverloaded — never enqueued, never blocked — and that the
// rejection is counted.
func TestRouterQueueFullRejects(t *testing.T) {
	r := NewRouter(1, 1, 0, 0)
	defer r.Drain()
	release, wg := saturate(t, r, "a", 1)

	start := time.Now()
	err := r.Do(context.Background(), "a", func() { t.Error("rejected task ran") })
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("Do on full queue: got %v, want ErrOverloaded", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("rejection took %v: connection blocked instead of immediate 429", d)
	}
	if got := r.Stats().Rejected; got != 1 {
		t.Fatalf("Rejected = %d, want 1", got)
	}
	close(release)
	wg.Wait()
}

// TestRouterShedsExpiredQueued checks deadline-aware queueing: a
// request whose context expires while it sits in the queue is answered
// with ErrExpiredInQueue without its fn ever running.
func TestRouterShedsExpiredQueued(t *testing.T) {
	r := NewRouter(1, 4, 0, 0)
	defer r.Drain()
	release := make(chan struct{})
	started := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		r.Do(context.Background(), "a", func() { close(started); <-release })
	}()
	<-started // the worker is executing the blocker

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	errCh := make(chan error, 1)
	ran := false
	go func() {
		errCh <- r.Do(ctx, "a", func() { ran = true })
	}()
	// Let the deadline expire while the task is queued behind the
	// blocker, then release the worker so it dequeues the expired task.
	time.Sleep(20 * time.Millisecond)
	close(release)
	err := <-errCh
	wg.Wait()
	if !errors.Is(err, ErrExpiredInQueue) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired-in-queue Do: got %v, want ErrExpiredInQueue wrapping DeadlineExceeded", err)
	}
	if ran {
		t.Fatal("expired request was evaluated")
	}
	if got := r.Stats().Shed; got != 1 {
		t.Fatalf("Shed = %d, want 1", got)
	}
}

// TestRouterPanicIsolation checks that a panicking task is recovered
// at the worker boundary: the caller gets ErrWorkerPanic, the counter
// records it, and the same worker keeps serving.
func TestRouterPanicIsolation(t *testing.T) {
	r := NewRouter(1, 4, 1, 4)
	defer r.Drain()
	err := r.Do(context.Background(), "a", func() { panic("boom") })
	if !errors.Is(err, ErrWorkerPanic) {
		t.Fatalf("panicking Do: got %v, want ErrWorkerPanic", err)
	}
	if err := r.DoHeavy(context.Background(), func() { panic("heavy boom") }); !errors.Is(err, ErrWorkerPanic) {
		t.Fatalf("panicking DoHeavy: got %v, want ErrWorkerPanic", err)
	}
	if got := r.Stats().Panics; got != 2 {
		t.Fatalf("Panics = %d, want 2", got)
	}
	// Both workers survived their panics.
	ok := false
	if err := r.Do(context.Background(), "a", func() { ok = true }); err != nil || !ok {
		t.Fatalf("fast worker dead after panic: err=%v ran=%v", err, ok)
	}
	ok = false
	if err := r.DoHeavy(context.Background(), func() { ok = true }); err != nil || !ok {
		t.Fatalf("heavy worker dead after panic: err=%v ran=%v", err, ok)
	}
}

// TestRouterHeavyLaneIndependent checks the two lanes are independent:
// a saturated heavy lane rejects heavy work while the fast lane still
// answers, and vice versa.
func TestRouterHeavyLaneIndependent(t *testing.T) {
	r := NewRouter(1, 4, 1, 1)
	defer r.Drain()

	// Saturate the heavy lane: one executing + one queued.
	release := make(chan struct{})
	started := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		r.DoHeavy(context.Background(), func() { close(started); <-release })
	}()
	<-started // the heavy worker is executing the blocker
	wg.Add(1)
	go func() { defer wg.Done(); r.DoHeavy(context.Background(), func() {}) }()
	deadline := time.Now().Add(5 * time.Second)
	for r.Stats().Heavy.Queued < 1 {
		if time.Now().After(deadline) {
			t.Fatal("heavy lane never saturated")
		}
		time.Sleep(time.Millisecond)
	}
	if err := r.DoHeavy(context.Background(), func() {}); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("DoHeavy on full lane: got %v, want ErrOverloaded", err)
	}

	// Fast lane still serves instantly.
	ran := false
	if err := r.Do(context.Background(), "a", func() { ran = true }); err != nil || !ran {
		t.Fatalf("fast lane stalled by heavy saturation: err=%v ran=%v", err, ran)
	}
	close(release)
	wg.Wait()
}

func TestRouterDrain(t *testing.T) {
	r := NewRouter(2, 64, 0, 0)
	var ran int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < 20; i++ {
		wg.Add(1)
		name := fmt.Sprintf("db%d", i%4)
		go func() {
			defer wg.Done()
			r.Do(context.Background(), name, func() {
				mu.Lock()
				ran++
				mu.Unlock()
			})
		}()
	}
	wg.Wait()
	r.Drain()
	if ran != 20 {
		t.Fatalf("ran %d tasks before drain, want 20", ran)
	}
	if err := r.Do(context.Background(), "db0", func() {}); !errors.Is(err, ErrDraining) {
		t.Fatalf("Do after Drain: got %v, want ErrDraining", err)
	}
	if err := r.DoHeavy(context.Background(), func() {}); !errors.Is(err, ErrDraining) {
		t.Fatalf("DoHeavy after Drain: got %v, want ErrDraining", err)
	}
	r.Drain() // idempotent
	s := r.Stats()
	var executed uint64
	for _, w := range s.Workers {
		executed += w.Executed
		if w.Queued != 0 {
			t.Errorf("queued tasks survived drain: %+v", w)
		}
	}
	if executed != 20 {
		t.Errorf("executed %d, want 20", executed)
	}
}

// TestRouterDrainUnderSaturation drains a router whose only fast-lane
// worker is stalled behind a full queue while producers keep
// submitting. Because enqueues are non-blocking, no producer can be
// parked on a channel Drain is about to close: every concurrent Do
// either completes or fails with ErrOverloaded/ErrDraining, and Drain
// returns once the queue empties.
func TestRouterDrainUnderSaturation(t *testing.T) {
	r := NewRouter(1, 2, 1, 1)
	release := make(chan struct{})
	started := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		r.Do(context.Background(), "a", func() { close(started); <-release })
	}()
	<-started
	// Producers hammering both lanes throughout the drain.
	stop := make(chan struct{})
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				r.Do(context.Background(), "a", func() {})
				r.DoHeavy(context.Background(), func() {})
			}
		}()
	}
	time.Sleep(10 * time.Millisecond)
	go func() {
		time.Sleep(10 * time.Millisecond)
		close(release) // un-stall the worker mid-drain
		time.Sleep(5 * time.Millisecond)
		close(stop)
	}()
	done := make(chan struct{})
	go func() { r.Drain(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Drain deadlocked under saturation")
	}
	wg.Wait()
	if got := r.InFlight(); got != 0 {
		t.Fatalf("InFlight after drain = %d, want 0", got)
	}
}
