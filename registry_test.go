package cqa

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"
)

func TestRegistryLifecycle(t *testing.T) {
	r := NewRegistry(nil)
	if err := r.Register("", NewInstance()); err == nil {
		t.Fatal("empty name accepted")
	}
	if err := r.Register("beta", churnInstance(1)); err != nil {
		t.Fatal(err)
	}
	if err := r.Register("alpha", churnInstance(2)); err != nil {
		t.Fatal(err)
	}
	if err := r.Register("alpha", NewInstance()); !errors.Is(err, ErrInstanceExists) {
		t.Fatalf("duplicate register: got %v, want ErrInstanceExists", err)
	}
	if got := r.Names(); len(got) != 2 || got[0] != "alpha" || got[1] != "beta" {
		t.Fatalf("Names() = %v, want sorted [alpha beta]", got)
	}

	info, err := r.Info("alpha")
	if err != nil {
		t.Fatal(err)
	}
	if info.Name != "alpha" || info.Facts == 0 || info.LineageDepth != 0 ||
		info.Queries != 0 || info.Mutations != 0 {
		t.Fatalf("fresh info = %+v", info)
	}
	if _, err := r.Info("gamma"); !errors.Is(err, ErrInstanceNotFound) {
		t.Fatalf("Info on missing: got %v, want ErrInstanceNotFound", err)
	}

	infos := r.Infos()
	if len(infos) != 2 || infos[0].Name != "alpha" || infos[1].Name != "beta" {
		t.Fatalf("Infos() = %+v", infos)
	}

	if !r.Drop("beta") {
		t.Fatal("Drop(beta) = false")
	}
	if r.Drop("beta") {
		t.Fatal("second Drop(beta) = true")
	}
	if got := r.Names(); len(got) != 1 || got[0] != "alpha" {
		t.Fatalf("Names() after drop = %v", got)
	}
}

func TestRegistryRegisterNilGetsEmptyInstance(t *testing.T) {
	r := NewRegistry(nil)
	if err := r.Register("empty", nil); err != nil {
		t.Fatal(err)
	}
	info, err := r.Info("empty")
	if err != nil {
		t.Fatal(err)
	}
	if info.Facts != 0 {
		t.Fatalf("nil-register facts = %d, want 0", info.Facts)
	}
	// An empty consistent instance trivially satisfies no path query.
	res, err := r.Query(context.Background(), "empty", MustParseQuery("RRX"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Certain {
		t.Fatal("empty instance decided certain")
	}
}

// TestRegistryQueryMatchesDirect checks registry decisions against the
// engine evaluating the same instance directly, across all four tiers.
func TestRegistryQueryMatchesDirect(t *testing.T) {
	eng := NewEngine(EngineConfig{})
	r := NewRegistry(eng)
	db := churnInstance(7)
	ref := db.Clone()
	if err := r.Register("db", db); err != nil {
		t.Fatal(err)
	}
	words := []string{"RXRX", "RRX", "RXRYRY", "ARRX"}
	for _, w := range words {
		q := MustParseQuery(w)
		got, err := r.Query(context.Background(), "db", q, Options{})
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		want := Certain(q, ref)
		if got.Certain != want.Certain {
			t.Errorf("%s: registry=%v direct=%v", w, got.Certain, want.Certain)
		}
	}
	info, _ := r.Info("db")
	if info.Queries != uint64(len(words)) {
		t.Errorf("query counter = %d, want %d", info.Queries, len(words))
	}
	if _, err := r.Query(context.Background(), "nope", MustParseQuery("RRX"), Options{}); !errors.Is(err, ErrInstanceNotFound) {
		t.Fatalf("Query on missing: got %v, want ErrInstanceNotFound", err)
	}
}

func TestRegistryQueryBatch(t *testing.T) {
	r := NewRegistry(NewEngine(EngineConfig{}))
	db := churnInstance(3)
	ref := db.Clone()
	if err := r.Register("db", db); err != nil {
		t.Fatal(err)
	}
	queries := []Query{
		MustParseQuery("RXRX"),
		MustParseQuery("ARRX"),
		MustParseQuery("RRX"),
		MustParseQuery("RXRX"),
	}
	items := batchItems(queries)
	out, err := r.QueryBatchItems(context.Background(), "db", items, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(queries) {
		t.Fatalf("got %d results, want %d", len(out), len(queries))
	}
	for i, res := range out {
		if res.Err != nil {
			t.Fatalf("result %d: %v", i, res.Err)
		}
		if want := Certain(queries[i], ref); res.Certain != want.Certain {
			t.Errorf("result %d: batch=%v direct=%v", i, res.Certain, want.Certain)
		}
	}

	// A canceled context stops the batch with a short count.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out, err = r.QueryBatchItems(ctx, "db", items, Options{})
	if err == nil {
		t.Fatal("canceled batch returned nil error")
	}
	if len(out) != 0 {
		t.Fatalf("canceled batch returned %d results, want 0", len(out))
	}

	if _, err := r.QueryBatchItems(context.Background(), "nope", items, Options{}); !errors.Is(err, ErrInstanceNotFound) {
		t.Fatalf("QueryBatchItems on missing: got %v, want ErrInstanceNotFound", err)
	}
}

// batchItems wraps queries as QueryBatchItems items without deadlines.
func batchItems(queries []Query) []BatchItem {
	items := make([]BatchItem, len(queries))
	for i, q := range queries {
		items[i] = BatchItem{Query: q}
	}
	return items
}

// TestRegistryMutate checks atomic remove-then-add ordering and that an
// in-universe mutation extends the lineage chain instead of resetting
// it (the repair path serving clients depend on).
func TestRegistryMutate(t *testing.T) {
	r := NewRegistry(NewEngine(EngineConfig{}))
	db := churnInstance(5)
	if err := r.Register("db", db); err != nil {
		t.Fatal(err)
	}
	// Warm the memo so the lineage chain has a resident root.
	if _, err := r.Query(context.Background(), "db", MustParseQuery("ARRX"), Options{}); err != nil {
		t.Fatal(err)
	}

	f := Fact{Rel: "R", Key: "a", Val: "e"}
	// Remove-then-add of the same fact must leave it present: removals
	// run first, so the add wins within one mutation.
	info, err := r.Mutate("db", Mutation{Add: []Fact{f}, Remove: []Fact{f}})
	if err != nil {
		t.Fatal(err)
	}
	if info.Mutations != 1 {
		t.Errorf("mutation counter = %d, want 1", info.Mutations)
	}
	if !db.Contains(f) {
		t.Error("remove-then-add dropped the fact: wrong application order")
	}
	if info.LineageDepth == 0 {
		t.Errorf("in-universe mutation reset the lineage chain: %+v", info)
	}

	if _, err := r.Mutate("nope", Mutation{}); !errors.Is(err, ErrInstanceNotFound) {
		t.Fatalf("Mutate on missing: got %v, want ErrInstanceNotFound", err)
	}
}

// TestRegistryConcurrentChurn runs concurrent queries and mutations
// against one registered instance; the registry's per-instance RWMutex
// must keep them from racing (run with -race). Decisions are checked
// for internal consistency per snapshot via QueryBatchItems, which holds
// the read lock across the whole run.
func TestRegistryConcurrentChurn(t *testing.T) {
	r := NewRegistry(NewEngine(EngineConfig{}))
	if err := r.Register("db", churnInstance(11)); err != nil {
		t.Fatal(err)
	}
	consts := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	rels := []string{"A", "R", "X", "Y"}
	items := batchItems([]Query{
		MustParseQuery("RXRX"),
		MustParseQuery("RRX"),
		MustParseQuery("RXRYRY"),
		MustParseQuery("ARRX"),
	})

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(42))
		for i := 0; i < 60; i++ {
			f := Fact{
				Rel: rels[rng.Intn(len(rels))],
				Key: consts[rng.Intn(len(consts))],
				Val: consts[rng.Intn(len(consts))],
			}
			var mut Mutation
			if rng.Intn(2) == 0 {
				mut.Add = []Fact{f}
			} else {
				mut.Remove = []Fact{f}
			}
			if _, err := r.Mutate("db", mut); err != nil {
				t.Errorf("mutate: %v", err)
				return
			}
		}
	}()
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				out, err := r.QueryBatchItems(context.Background(), "db", items, Options{})
				if err != nil {
					t.Errorf("batch: %v", err)
					return
				}
				for j, res := range out {
					if res.Err != nil {
						t.Errorf("batch result %d: %v", j, res.Err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
