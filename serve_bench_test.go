// Serving-tier steady-state benchmark (package cqa_test so it can see
// both the public API and internal/server without an import cycle).
//
// BenchmarkServeSteadyState answers the deployment question the serve
// daemon raises: once the registry's instances are warm, how much does
// the HTTP/NDJSON front end cost over calling CertainBatch in process
// on the same decision mix? Both sides evaluate an identical set of
// (query, instance) pairs per op — "served" streams them as NDJSON
// batches over one connection per instance through the persistent shard
// router, "inprocess" hands them to the engine's sharded batch
// scheduler directly. Every decision in the timed rounds is a warm
// stored-decision hit, so the in-process side is nearly all engine
// front end and the quotient is dominated by the HTTP + NDJSON + router
// cost. The benchgate ratio gate serve-vs-batch bounds served/inprocess
// at 16x (the measured quotient plus 25% headroom), keeping that
// overhead a hardware-independent invariant.
package cqa_test

import (
	"bufio"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"cqa"
	"cqa/internal/server"
	"cqa/internal/workload"
)

const (
	serveBenchInstances = 8
	serveBenchRepeats   = 16 // rounds of the word mix per instance per op
)

// serveBenchWords is one query per tier, same mix as the server e2e.
var serveBenchWords = []string{"RXRX", "RRX", "RXRYRY", "ARRX"}

func serveBenchDB(i int) *cqa.Instance {
	return workload.Random(workload.Config{
		Relations:    []string{"R", "X", "Y", "A"},
		Constants:    300,
		Facts:        1000,
		ConflictRate: 0.3,
		Seed:         int64(2600 + i),
	})
}

// serveBenchBody is the NDJSON batch each instance's connection streams
// per op: the word mix repeated serveBenchRepeats times.
func serveBenchBody() (string, int) {
	var sb strings.Builder
	n := 0
	for r := 0; r < serveBenchRepeats; r++ {
		for _, w := range serveBenchWords {
			sb.WriteString(w)
			sb.WriteByte('\n')
			n++
		}
	}
	return sb.String(), n
}

func BenchmarkServeSteadyState(b *testing.B) {
	body, perInstance := serveBenchBody()

	b.Run("served", func(b *testing.B) {
		reg := cqa.NewRegistry(cqa.NewEngine(cqa.EngineConfig{}))
		srv := server.New(server.Config{Registry: reg, RouterWorkers: 4})
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		defer srv.Drain()

		names := make([]string, serveBenchInstances)
		for i := range names {
			names[i] = fmt.Sprintf("db%d", i)
			if err := reg.Register(names[i], serveBenchDB(i)); err != nil {
				b.Fatal(err)
			}
		}
		round := func() {
			var wg sync.WaitGroup
			for _, name := range names {
				wg.Add(1)
				go func(name string) {
					defer wg.Done()
					resp, err := http.Post(ts.URL+"/instances/"+name+"/batch",
						"application/x-ndjson", strings.NewReader(body))
					if err != nil {
						b.Error(err)
						return
					}
					defer resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						b.Errorf("%s: status %d", name, resp.StatusCode)
						return
					}
					got := 0
					sc := bufio.NewScanner(resp.Body)
					for sc.Scan() {
						if strings.Contains(sc.Text(), `"error"`) {
							b.Errorf("%s: %s", name, sc.Text())
							return
						}
						got++
					}
					if got != perInstance {
						b.Errorf("%s: %d responses, want %d", name, got, perInstance)
					}
				}(name)
			}
			wg.Wait()
		}
		round() // warm the memos and the connections outside the timer
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			round()
		}
	})

	b.Run("inprocess", func(b *testing.B) {
		eng := cqa.NewEngine(cqa.EngineConfig{})
		var reqs []cqa.Request
		for i := 0; i < serveBenchInstances; i++ {
			db := serveBenchDB(i)
			for r := 0; r < serveBenchRepeats; r++ {
				for _, w := range serveBenchWords {
					reqs = append(reqs, cqa.Request{Query: cqa.MustParseQuery(w), DB: db})
				}
			}
		}
		round := func() {
			for _, res := range eng.CertainBatch(context.Background(), reqs) {
				if res.Err != nil {
					b.Fatal(res.Err)
				}
			}
		}
		round() // warm, matching the served side
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			round()
		}
	})
}
