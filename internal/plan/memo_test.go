package plan

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"cqa/internal/classify"
	"cqa/internal/conp"
	"cqa/internal/instance"
	"cqa/internal/repairs"
	"cqa/internal/words"
)

// memoWords cover every tier of the tetrachotomy, two words each.
var memoWords = []string{
	"RXRX", "RXY", // FO
	"RRX", "RRY", // NL
	"RXRYRY", "RRXRX", // PTIME
	"ARRX", "RXXR", // coNP
}

// soundMethods lists the tiers a plan of class cls may be forced to,
// the default dispatch ("") first.
func soundMethods(cls classify.Class) []Method {
	out := []Method{""}
	for _, m := range tierMethods {
		if sound(m, cls) {
			out = append(out, m)
		}
	}
	return out
}

// memoUniverse is the constant universe of the differential instances.
var memoUniverse = []string{"a", "b", "c", "d", "e", "f"}

// randomFact draws a fact over the memo universe.
func randomFact(rng *rand.Rand) instance.Fact {
	return instance.Fact{
		Rel: []string{"A", "R", "X", "Y"}[rng.Intn(4)],
		Key: memoUniverse[rng.Intn(len(memoUniverse))],
		Val: memoUniverse[rng.Intn(len(memoUniverse))],
	}
}

// TestDecisionMemoDifferential drives every tier, by default dispatch
// and by every sound forced method, through random mutation sequences
// and checks each memoized decision — the first on a snapshot (a cold
// build or a lineage repair) and its stored repeats, made from several
// goroutines at once — against a cold decision of a fresh plan on a
// copy of the instance, and against the exhaustive repair oracle. The
// mutations stay in the universe (lineage repairs) except for the
// occasional fresh constant, which starts a new lineage root.
func TestDecisionMemoDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(1313))
	plans := make([]*Plan, len(memoWords))
	for i, w := range memoWords {
		plans[i] = Compile(words.MustParse(w))
	}
	for seq := 0; seq < 4; seq++ {
		db := instance.New()
		for i := 0; i < 10; i++ {
			db.Add(randomFact(rng))
		}
		for step := 0; step < 30; step++ {
			switch f := randomFact(rng); {
			case step%11 == 10:
				db.AddFact("R", memoUniverse[rng.Intn(len(memoUniverse))], fmt.Sprintf("fresh%d_%d", seq, step))
			case db.Contains(f) && len(db.Block(f.Rel, f.Key)) > 1:
				db.Remove(f)
			default:
				db.Add(f)
			}
			cold := db.Clone()
			for i, p := range plans {
				q := words.MustParse(memoWords[i])
				oracle := repairs.IsCertain(cold, q)
				for _, m := range soundMethods(p.Class()) {
					want, err := Compile(q).Execute(cold, Options{Force: m})
					if err != nil {
						t.Fatal(err)
					}
					if want.Certain != oracle {
						t.Fatalf("%s force=%q on %s: cold %v, exhaustive %v", memoWords[i], m, cold, want.Certain, oracle)
					}
					var wg sync.WaitGroup
					for g := 0; g < 3; g++ {
						wg.Add(1)
						go func() {
							defer wg.Done()
							for rep := 0; rep < 2; rep++ {
								got, err := p.Execute(db, Options{Force: m})
								if err != nil {
									t.Error(err)
									return
								}
								if got.Certain != want.Certain || got.Method != want.Method || got.Witness != want.Witness || got.Note != want.Note {
									t.Errorf("%s force=%q step %d.%d: memoized %+v, cold %+v", memoWords[i], m, seq, step, got, want)
								}
							}
						}()
					}
					wg.Wait()
					if t.Failed() {
						t.FailNow()
					}
				}
			}
		}
	}
	for i, p := range plans {
		if s := p.MemoStats(); s.Repairs == 0 || s.Hits == 0 || s.ColdBuilds() == 0 {
			t.Errorf("%s: memo stats %+v, want hits, repairs and cold builds", memoWords[i], s)
		}
	}
}

// TestDecisionMemoKeyedByTier: a forced method decides through its own
// tier's memo, so it never sees the default tier's stored decision: on
// a snapshot the default tier has already decided, the forced tier's
// first decision is a miss, and only its repeats are hits.
func TestDecisionMemoKeyedByTier(t *testing.T) {
	db := instance.MustParseFacts("R(0,1) R(1,2) R(1,3) R(2,3) X(3,4)")
	p := Compile(words.MustParse("RRX"))
	p.Certain(db)
	p.Certain(db)
	before := p.MemoStats()
	if before.Misses != 1 || before.Hits != 1 {
		t.Fatalf("default tier: stats %+v, want 1 miss and 1 hit", before)
	}
	for rep := 0; rep < 2; rep++ {
		res, err := p.Execute(db, Options{Force: MethodFixpoint})
		if err != nil || res.Method != MethodFixpoint || !res.Certain {
			t.Fatalf("forced fixpoint: %+v, %v", res, err)
		}
	}
	if s := p.MemoStats(); s.Misses != 2 || s.Hits != 2 {
		t.Fatalf("after forcing the fixpoint tier: stats %+v, want 2 misses and 2 hits", s)
	}
}

// stepCtx is a context whose Err flips to Canceled after limit polls,
// making a cancellation point inside the SAT tier deterministic.
type stepCtx struct{ calls, limit int }

func (c *stepCtx) Deadline() (time.Time, bool) { return time.Time{}, false }
func (c *stepCtx) Done() <-chan struct{}       { return nil }
func (c *stepCtx) Value(any) any               { return nil }
func (c *stepCtx) Err() error {
	c.calls++
	if c.calls > c.limit {
		return context.Canceled
	}
	return nil
}

// TestDecisionMemoCancelledSATStoresNothing cancels a SAT decision
// inside the solver: the call returns the context's error, the memo
// keeps the encoding but stores no decision, and a retry decides.
func TestDecisionMemoCancelledSATStoresNothing(t *testing.T) {
	// Figure 3: a no-instance of CERTAINTY(ARRX).
	db := instance.MustParseFacts("A(0,a) R(a,b) R(a,c) R(b,c) R(c,b) X(c,t)")
	p := Compile(words.MustParse("ARRX"))
	// Poll 1 is ExecuteCtx's entry check; the solver's entry poll
	// cancels.
	if _, err := p.ExecuteCtx(&stepCtx{limit: 1}, db, Options{}); err != context.Canceled {
		t.Fatalf("cancelled decision: err = %v, want context.Canceled", err)
	}
	sat := p.tier(MethodSAT).run.(*memoTier[*conp.Encoding])
	c, ok := sat.memo.Peek(db.Interned())
	if !ok {
		t.Fatal("the encoding built before the cancellation is not resident")
	}
	if d := c.dec.Load(); d != nil {
		t.Fatalf("cancelled decision stored %+v", *d)
	}
	res, err := p.ExecuteCtx(context.Background(), db, Options{})
	if err != nil || res.Certain {
		t.Fatalf("retry: %+v, %v; want a no-decision", res, err)
	}
	if d := c.dec.Load(); d == nil || d.Certain {
		t.Fatalf("retry stored %v, want the no-decision", d)
	}
	if s := p.MemoStats(); s.Misses != 1 || s.Hits != 1 {
		t.Fatalf("stats %+v, want the retry to hit the resident encoding", s)
	}
}

// TestDecisionMemoCounterexampleOnWarmNoInstance: a counterexample
// request on a snapshot whose no-decision is already stored bypasses
// the stored decision and still returns a repair falsifying q, on
// every tier.
func TestDecisionMemoCounterexampleOnWarmNoInstance(t *testing.T) {
	cases := []struct{ q, facts string }{
		{"RXRX", "R(a,b) R(a,c) X(b,d) R(d,e) X(e,f)"},
		{"RRX", "R(a,b) R(a,c) R(b,c) X(b,d)"},
		{"RXRYRY", "R(a,b) R(a,c) X(b,d) R(d,e) Y(e,f) R(f,g) Y(g,h)"},
		{"ARRX", "A(0,a) R(a,b) R(a,c) R(b,c) R(c,b) X(c,t)"},
	}
	for _, c := range cases {
		q := words.MustParse(c.q)
		db := instance.MustParseFacts(c.facts)
		if repairs.IsCertain(db, q) {
			t.Fatalf("%s on %s: want a no-instance", c.q, c.facts)
		}
		p := Compile(q)
		for _, m := range soundMethods(p.Class()) {
			if res, err := p.Execute(db, Options{Force: m}); err != nil || res.Certain {
				t.Fatalf("%s force=%q: %+v, %v", c.q, m, res, err)
			}
			res, err := p.Execute(db, Options{Force: m, WantCounterexample: true})
			if err != nil || res.Certain {
				t.Fatalf("%s force=%q with counterexample: %+v, %v", c.q, m, res, err)
			}
			cex := res.Counterexample
			if cex == nil || !cex.IsRepairOf(db) || cex.Satisfies(q) {
				t.Fatalf("%s force=%q: counterexample %v is not a repair falsifying q", c.q, m, cex)
			}
		}
	}
}

// TestDecisionMemoWarmAllocs: a repeat decision on an unchanged snapshot
// is one memo hit returning the stored decision — no allocation on any
// tier — and counts as a hit.
func TestDecisionMemoWarmAllocs(t *testing.T) {
	db := instance.MustParseFacts("A(0,a) R(a,b) R(a,c) R(b,c) R(c,b) X(c,t) R(0,1) R(1,2) R(1,3) R(2,3) X(3,4) Y(4,5)")
	ctx := context.Background()
	for _, w := range []string{"RXRX", "RRX", "RXRYRY", "ARRX"} {
		p := Compile(words.MustParse(w))
		want, err := p.ExecuteCtx(ctx, db, Options{})
		if err != nil {
			t.Fatal(err)
		}
		before := p.MemoStats()
		const runs = 100
		allocs := testing.AllocsPerRun(runs, func() {
			if got, err := p.ExecuteCtx(ctx, db, Options{}); err != nil || got.Certain != want.Certain {
				t.Fatalf("%s: warm decision %+v, %v; want %v", w, got, err, want.Certain)
			}
		})
		if allocs != 0 {
			t.Errorf("%s (%s): %v allocations per warm decision, want 0", w, want.Method, allocs)
		}
		after := p.MemoStats()
		// AllocsPerRun makes one warm-up call before the measured runs.
		if after.Hits-before.Hits != runs+1 || after.Misses != before.Misses {
			t.Errorf("%s: stats %+v -> %+v, want %d hits and no misses", w, before, after, runs+1)
		}
	}
}
