package cqa

// Benchmark series for intra-query parallelism on giant instances.
// Each benchmark pairs a serial and a parallel arm over the same
// facts=1e6 instance so benchgate can gate their quotient — the
// hardware-independent claim "the partitioned path is ≥ 2x at 4 cores"
// — instead of absolute ns/op, which would not survive a runner change.
// The arms measure cold work: a fresh Compile (fixpoint) or fresh
// Evaluator (NL) per iteration, so the binding build is always paid,
// never memo-hit. The loader's serial arm includes Interned() because
// the parallel pipeline pre-publishes the snapshot — comparing ingest
// without the intern step would flatter the serial side.

import (
	"bytes"
	"context"
	"runtime"
	"sync"
	"testing"

	"cqa/internal/fixpoint"
	"cqa/internal/instance"
	"cqa/internal/nl"
	"cqa/internal/words"
	"cqa/internal/workload"
)

const giantFacts = 1_000_000

var (
	giantOnce sync.Once
	giantDB   *Instance
	giantCSV  []byte
)

// giantInstance builds the facts=1e6 workload once per test binary:
// generation plus interning takes whole seconds, which must not be
// re-paid per benchmark arm.
func giantInstance() *Instance {
	giantOnce.Do(func() {
		giantDB = workload.Random(workload.Config{
			Relations:    []string{"R", "X", "Y", "A"},
			Constants:    giantFacts / 2,
			Facts:        giantFacts,
			ConflictRate: 0.3,
			Seed:         42,
		})
		var buf bytes.Buffer
		if err := giantDB.WriteCSV(&buf); err != nil {
			panic(err)
		}
		giantCSV = buf.Bytes()
		giantDB.Interned()
	})
	return giantDB
}

// BenchmarkTierFixpointParallel: cold Figure 5 solve (binding build +
// worklist) at facts=1e6, single-core versus partitioned. The query
// touches all four workload relations, so the parallel binding build
// fans out across four position groups.
func BenchmarkTierFixpointParallel(b *testing.B) {
	q := words.MustParse("RXRYRA")
	iv := giantInstance().Interned()
	ctx := context.Background()
	b.Run("facts=1000000", func(b *testing.B) {
		for _, arm := range []struct {
			name    string
			workers int
		}{{"serial", 1}, {"parallel", runtime.GOMAXPROCS(0)}} {
			b.Run(arm.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					cp := fixpoint.Compile(q)
					if _, err := cp.SolveBound(ctx, iv, cp.Bind(iv, arm.workers), arm.workers); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	})
}

// BenchmarkTierNLParallel: cold Section 6.3 decision (Lemma 14 stages
// + decision scan) at facts=1e6 on the NL-class query RRX.
func BenchmarkTierNLParallel(b *testing.B) {
	q := words.MustParse("RRX")
	iv := giantInstance().Interned()
	b.Run("facts=1000000", func(b *testing.B) {
		for _, arm := range []struct {
			name    string
			workers int
		}{{"serial", 1}, {"parallel", runtime.GOMAXPROCS(0)}} {
			b.Run(arm.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					ev, err := nl.NewEvaluator(q)
					if err != nil {
						b.Fatal(err)
					}
					ev.Certain(iv, ev.Bind(iv, arm.workers))
				}
			})
		}
	})
}

// BenchmarkLoaderParallel: CSV ingest of facts=1e6 to a ready-to-solve
// instance. Both arms end with a published interned snapshot: the
// serial arm is ReadCSV + Interned(), the parallel arm the streaming
// pipeline (which pre-publishes it).
func BenchmarkLoaderParallel(b *testing.B) {
	giantInstance()
	b.Run("facts=1000000", func(b *testing.B) {
		b.Run("serial", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				db, err := instance.ReadCSV(bytes.NewReader(giantCSV))
				if err != nil {
					b.Fatal(err)
				}
				db.Interned()
			}
		})
		b.Run("parallel", func(b *testing.B) {
			b.ReportAllocs()
			workers := runtime.GOMAXPROCS(0)
			for i := 0; i < b.N; i++ {
				if _, err := instance.ReadCSVParallel(bytes.NewReader(giantCSV), workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	})
}
