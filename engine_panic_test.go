package cqa

import (
	"context"
	"errors"
	"testing"

	"cqa/internal/faultinject"
)

// TestEnginePanicIsolation checks the recover() boundary at the
// engine's context-aware entry points: an injected panic inside a
// decision becomes a per-request ErrPanic, the Panics counter records
// it, and the engine keeps serving correct decisions afterwards — the
// first of them recomputed, not served from a poisoned memo entry.
func TestEnginePanicIsolation(t *testing.T) {
	faultinject.Reset()
	t.Cleanup(faultinject.Reset)

	eng := NewEngine(EngineConfig{})
	db := churnInstance(3)
	q := MustParseQuery("ARRX")

	// Reference decision before any fault is armed, on a separate
	// engine: on eng it would be stored, and the faulted decision below
	// would be a memo hit that never reaches the SAT solver.
	want := NewEngine(EngineConfig{}).Certain(q, db).Certain

	faultinject.Enable(faultinject.SATSolve, 1, false)
	if _, err := eng.CertainCtx(context.Background(), q, db); !errors.Is(err, ErrPanic) {
		t.Fatalf("CertainCtx under injected SAT fault: got %v, want ErrPanic", err)
	}
	if got := eng.Stats().Panics; got != 1 {
		t.Fatalf("Stats.Panics = %d, want 1", got)
	}
	// Re-arm at a period that never fires, so the failpoint only counts
	// the solves that reach it.
	faultinject.Enable(faultinject.SATSolve, 1<<30, false)

	// The engine, the plan, and the memoized encoding all survived.
	res, err := eng.CertainCtx(context.Background(), q, db)
	if err != nil {
		t.Fatalf("decision after recovered panic: %v", err)
	}
	if res.Certain != want {
		t.Fatalf("decision after recovered panic = %v, want %v", res.Certain, want)
	}
	// The panicked decision stored nothing: the first decision after it
	// ran the solver, and only then is the decision stored.
	if hits := faultinject.Hits(faultinject.SATSolve); hits != 1 {
		t.Fatalf("SAT solves for the first decision after the panic = %d, want 1 (recomputed)", hits)
	}
	if again, err := eng.CertainCtx(context.Background(), q, db); err != nil || again.Certain != want {
		t.Fatalf("repeat decision = %v, %v; want %v", again.Certain, err, want)
	}
	if hits := faultinject.Hits(faultinject.SATSolve); hits != 1 {
		t.Fatalf("SAT solves after a repeat = %d, want 1 (served from the stored decision)", hits)
	}
}

// TestCertainBatchPanicIsolation: a panicking request inside a batch
// errors only its own slot; the other requests decide normally.
func TestCertainBatchPanicIsolation(t *testing.T) {
	faultinject.Reset()
	t.Cleanup(faultinject.Reset)

	eng := NewEngine(EngineConfig{Workers: 2})
	db := churnInstance(4)
	qSAT := MustParseQuery("ARRX")
	qNL := MustParseQuery("RRX")
	wantNL := eng.Certain(qNL, db).Certain

	// Fire on every second SAT solve: of the two ARRX requests below,
	// exactly one panics. They go to two distinct instances, so each is
	// a decision-memo miss that runs the solver (a repeat on one
	// snapshot would be served from the first one's stored decision).
	faultinject.Enable(faultinject.SATSolve, 2, false)
	out := eng.CertainBatch(context.Background(), []Request{
		{Query: qSAT, DB: db},
		{Query: qSAT, DB: db.Clone()},
		{Query: qNL, DB: db},
	})
	faultinject.Disable(faultinject.SATSolve)

	var panicked int
	for i, r := range out[:2] {
		if r.Err != nil {
			if !errors.Is(r.Err, ErrPanic) {
				t.Fatalf("request %d: got %v, want ErrPanic", i, r.Err)
			}
			panicked++
		}
	}
	if panicked != 1 {
		t.Fatalf("panicked requests = %d, want exactly 1 (every=2, two SAT solves)", panicked)
	}
	if out[2].Err != nil || out[2].Certain != wantNL {
		t.Fatalf("unrelated request poisoned by sibling panic: %+v", out[2])
	}
	if got := eng.Stats().Panics; got != 1 {
		t.Fatalf("Stats.Panics = %d, want 1", got)
	}
}

// TestEngineMemoScale: the soft-memory-watermark hook scales every
// built tier's memo budget down and back up without disturbing
// decisions, and applies to plans compiled while degraded.
func TestEngineMemoScale(t *testing.T) {
	eng := NewEngine(EngineConfig{})
	db := churnInstance(5)
	words := []string{"RRX", "RXRYRY", "ARRX"}
	want := make(map[string]bool)
	for _, w := range words {
		want[w] = eng.Certain(MustParseQuery(w), db).Certain
	}

	eng.SetMemoScale(0.25)
	if got := eng.MemoScale(); got != 0.25 {
		t.Fatalf("MemoScale = %g, want 0.25", got)
	}
	// A plan compiled while degraded starts with shrunk budgets.
	degradedPlan := eng.Compile(MustParseQuery("RXRXRRX"))
	_ = degradedPlan
	for _, w := range words {
		if got := eng.Certain(MustParseQuery(w), db).Certain; got != want[w] {
			t.Fatalf("%s under degraded memos = %v, want %v", w, got, want[w])
		}
	}
	eng.SetMemoScale(1)
	if got := eng.MemoScale(); got != 1 {
		t.Fatalf("MemoScale after restore = %g, want 1", got)
	}
	for _, w := range words {
		if got := eng.Certain(MustParseQuery(w), db).Certain; got != want[w] {
			t.Fatalf("%s after restore = %v, want %v", w, got, want[w])
		}
	}
}
