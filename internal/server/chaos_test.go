package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cqa"
	"cqa/internal/faultinject"
)

// poolFacts are in-universe facts absent from serveFacts: the chaos
// mutator toggles them, so every mutation is a universe-preserving
// delta (repair path) and removing them all restores the base state
// exactly.
var poolFacts = []string{"R(a,f)", "A(c,g)", "X(e,b)", "Y(g,d)"}

// poolToggle is the body of the i-th chaos mutation: it adds pool fact
// i mod |pool| on the first pass over the pool and removes it on the
// second. No step undoes its predecessor, so (faults aside) every step
// publishes a snapshot no memo has seen and each word's next decision
// on it runs its tier — the coNP word's the SAT solver — instead of a
// stored decision.
func poolToggle(i int) string {
	op := "add"
	if i/len(poolFacts)%2 == 1 {
		op = "remove"
	}
	body, _ := json.Marshal(map[string][]string{op: {poolFacts[i%len(poolFacts)]}})
	return string(body)
}

// chaosTally is what the soak's clients observe, aggregated across
// goroutines.
type chaosTally struct {
	decisions  atomic.Uint64 // non-errored decisions received
	mismatches atomic.Uint64 // ... that contradicted the reference
	overloads  atomic.Uint64 // "overloaded" errors (429 or per-line)
	deadlines  atomic.Uint64 // deadline errors (504 or per-line)
	errors     atomic.Uint64 // any other per-request error
	aborted    atomic.Uint64 // connections that died mid-stream
}

// decodeNDJSON decodes as many queryResponse lines as the (possibly
// truncated) body contains.
func decodeNDJSON(body string) ([]queryResponse, bool) {
	var out []queryResponse
	dec := json.NewDecoder(strings.NewReader(body))
	for dec.More() {
		var r queryResponse
		if err := dec.Decode(&r); err != nil {
			return out, false
		}
		out = append(out, r)
	}
	return out, true
}

// tallyResponse classifies one decision line against the reference.
func (c *chaosTally) tallyResponse(r queryResponse, want map[string]bool, checked bool) {
	switch {
	case r.Error == "":
		if r.Certain != nil {
			c.decisions.Add(1)
			if checked && *r.Certain != want[r.Query] {
				c.mismatches.Add(1)
			}
		}
	case strings.Contains(r.Error, "overloaded"):
		c.overloads.Add(1)
	case strings.Contains(r.Error, "deadline"):
		c.deadlines.Add(1)
	default:
		c.errors.Add(1)
	}
}

// TestChaosSoak drives the daemon through every failpoint at once —
// injected faults in snapshot publish, memo build/repair, SAT solve,
// router handoff, and response writes — interleaved with mutations,
// register/drop churn, per-line deadlines, and more clients than the
// lanes can hold, under the race detector. It asserts the daemon never
// crashes or wedges, every non-errored decision matches an in-process
// reference, the recovered-panic counters reconcile exactly with the
// injected fault counts, and neither dropped instances nor requests for
// unknown names leave a router assignment behind.
func TestChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak")
	}
	faultinject.Reset()
	t.Cleanup(faultinject.Reset)

	// HeavyWorkers MUST stay 1 for the exact panic reconciliation below:
	// with the fast lane serialized per instance and one heavy worker,
	// no two goroutines can ever join the same in-flight memo build, so
	// every injected panic is recovered exactly once and counted exactly
	// once (no ErrBuildPanicked joiners).
	s := New(Config{
		RouterWorkers:    2,
		QueueDepth:       4,
		HeavyWorkers:     1,
		HeavyQueueDepth:  2,
		Window:           8,
		DefaultTimeout:   2 * time.Second,
		MemSoftLimit:     1, // always over: the watermark stays degraded all soak
		MemCheckInterval: 20 * time.Millisecond,
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	base := ts.URL

	// Register before arming: registration itself is not under test.
	checked := []string{"chk0", "chk1", "chk2", "chk3"}
	mutated := []string{"mut0", "mut1"}
	for _, name := range append(append([]string{}, checked...), mutated...) {
		if code, body := mustPost(t, base+"/instances/"+name, serveFacts()); code != http.StatusCreated {
			t.Fatalf("register %s: %d %s", name, code, body)
		}
	}
	refDB, err := cqa.ParseFacts(serveFacts())
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[string]bool)
	for _, w := range serveWords {
		want[w] = cqa.Certain(cqa.MustParseQuery(w), refDB).Certain
	}

	// Every failpoint armed, distinct primes so firings interleave.
	// Error mode everywhere: sites without an error path (snapshot
	// publish, memo build, SAT solve) escalate to panics at the site.
	faultinject.Enable(faultinject.SnapshotPublish, 7, false)
	faultinject.Enable(faultinject.MemoBuild, 5, false)
	faultinject.Enable(faultinject.MemoRepair, 3, false)
	faultinject.Enable(faultinject.SATSolve, 11, false)
	faultinject.Enable(faultinject.RouterHandoff, 13, false)
	faultinject.Enable(faultinject.ServerWrite, 17, false)

	var tally chaosTally
	stop := make(chan struct{})
	var wg sync.WaitGroup

	post := func(url, body string) (int, string, bool) {
		resp, err := http.Post(url, "text/plain", strings.NewReader(body))
		if err != nil {
			tally.aborted.Add(1)
			return 0, "", false
		}
		defer resp.Body.Close()
		out, err := io.ReadAll(resp.Body)
		if err != nil {
			tally.aborted.Add(1)
			return resp.StatusCode, string(out), false
		}
		return resp.StatusCode, string(out), true
	}

	// Batch clients: two concurrent streams per checked instance, mixing
	// bare lines, JSON lines, and per-line 1ms deadlines.
	for _, name := range checked {
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func(name string, g int) {
				defer wg.Done()
				var lines []string
				for i, w := range append(append([]string{}, serveWords...), serveWords...) {
					switch (i + g) % 3 {
					case 0:
						lines = append(lines, w)
					case 1:
						lines = append(lines, fmt.Sprintf(`{"query":%q}`, w))
					default:
						lines = append(lines, fmt.Sprintf(`{"query":%q,"timeout_ms":1}`, w))
					}
				}
				body := strings.Join(lines, "\n") + "\n"
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					code, out, ok := post(base+"/instances/"+name+"/batch", body)
					if !ok {
						continue // aborted stream (injected write fault)
					}
					if code != http.StatusOK {
						tally.errors.Add(1)
						continue
					}
					resps, _ := decodeNDJSON(out)
					for _, r := range resps {
						// Lines sent with timeout_ms:1 may legitimately decide
						// if they are dequeued in time; a decision is a
						// decision — check it either way.
						tally.tallyResponse(r, want, true)
					}
				}
			}(name, g)
		}
	}

	// Single-query clients with small header deadlines: exercise the
	// REST deadline path and the queued-expiry shed under load.
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			client := &http.Client{}
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				name := checked[i%len(checked)]
				word := serveWords[(i+g)%len(serveWords)]
				req, _ := http.NewRequest(http.MethodGet,
					base+"/instances/"+name+"/query?q="+word, nil)
				if i%3 == 0 {
					req.Header.Set(TimeoutHeader, "1")
				}
				resp, err := client.Do(req)
				if err != nil {
					tally.aborted.Add(1)
					continue
				}
				body, rerr := io.ReadAll(resp.Body)
				resp.Body.Close()
				if rerr != nil {
					tally.aborted.Add(1)
					continue
				}
				switch resp.StatusCode {
				case http.StatusOK:
					var r queryResponse
					if json.Unmarshal(body, &r) == nil {
						tally.tallyResponse(r, want, true)
					}
				case http.StatusTooManyRequests:
					tally.overloads.Add(1)
				case http.StatusGatewayTimeout:
					tally.deadlines.Add(1)
				default:
					tally.errors.Add(1)
				}
			}
		}(g)
	}

	// Mutators: toggle the pool facts on their own instances one at a
	// time (poolToggle), querying them between toggles (decisions
	// unchecked — the state is in flux — but every request must still
	// be answered, not wedged).
	for _, name := range mutated {
		wg.Add(1)
		go func(name string) {
			defer wg.Done()
			queryBody := strings.Join(serveWords, "\n") + "\n"
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				post(base+"/instances/"+name+"/mutate", poolToggle(i))
				if code, out, ok := post(base+"/instances/"+name+"/batch", queryBody); ok && code == http.StatusOK {
					resps, _ := decodeNDJSON(out)
					for _, r := range resps {
						tally.tallyResponse(r, want, false)
					}
				}
			}
		}(name)
	}

	// Register/drop churn: fresh instances of the base facts, each
	// registered, queried (checked), and dropped again.
	var churned atomic.Uint64
	wg.Add(1)
	go func() {
		defer wg.Done()
		queryBody := strings.Join(serveWords, "\n") + "\n"
		client := &http.Client{}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			name := fmt.Sprintf("churn%d", i)
			post(base+"/instances/"+name, serveFacts())
			if code, out, ok := post(base+"/instances/"+name+"/batch", queryBody); ok && code == http.StatusOK {
				resps, _ := decodeNDJSON(out)
				for _, r := range resps {
					tally.tallyResponse(r, want, true)
				}
			}
			req, _ := http.NewRequest(http.MethodDelete, base+"/instances/"+name, nil)
			if resp, err := client.Do(req); err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
			churned.Add(1)
		}
	}()

	// Unknown-name traffic: queries, mutations and batches for names
	// nobody registers. None may claim a router assignment, which the
	// live-instance check below asserts.
	var ghosts atomic.Uint64
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			name := fmt.Sprintf("ghost%d", i)
			if resp, err := http.Get(base + "/instances/" + name + "/query?q=RRX"); err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
			post(base+"/instances/"+name+"/mutate", poolToggle(i))
			post(base+"/instances/"+name+"/batch", strings.Join(serveWords, "\n")+"\n")
			ghosts.Add(1)
		}
	}()

	time.Sleep(1500 * time.Millisecond)
	close(stop)
	wg.Wait()

	// Disarm (fired counts survive until Reset) and restore the mutated
	// instances to the base state: the pool facts are disjoint from the
	// base facts, so one remove-all mutation lands there regardless of
	// where the toggling stopped or which toggles errored.
	for _, site := range []string{
		faultinject.SnapshotPublish, faultinject.MemoBuild, faultinject.MemoRepair,
		faultinject.SATSolve, faultinject.RouterHandoff, faultinject.ServerWrite,
	} {
		faultinject.Disable(site)
	}
	rmBody, _ := json.Marshal(map[string][]string{"remove": poolFacts})
	for _, name := range mutated {
		if code, body := mustPost(t, base+"/instances/"+name+"/mutate", string(rmBody)); code != http.StatusOK {
			t.Fatalf("cleanup mutation on %s: %d %s", name, code, body)
		}
	}

	// Zero wedged workers: with faults disarmed, every instance —
	// including the chaos-mutated ones, now restored — answers a full
	// batch correctly.
	var verify []string
	for i := 0; i < 4; i++ {
		verify = append(verify, serveWords...)
	}
	for _, name := range append(append([]string{}, checked...), mutated...) {
		for i, r := range runBatch(t, base, name, verify) {
			if r.Error != "" {
				t.Fatalf("post-soak decision %d on %s errored: %s", i, name, r.Error)
			}
			if r.Certain == nil || *r.Certain != want[r.Query] {
				t.Fatalf("post-soak decision on %s: %s = %v, want %v", name, r.Query, r.Certain, want[r.Query])
			}
		}
	}

	if n := tally.mismatches.Load(); n != 0 {
		t.Fatalf("%d non-errored decisions contradicted the reference during chaos", n)
	}
	if tally.decisions.Load() == 0 {
		t.Fatal("soak decided nothing: no coverage")
	}

	// Every failpoint actually fired.
	fired := make(map[string]uint64)
	for _, site := range []string{
		faultinject.SnapshotPublish, faultinject.MemoBuild, faultinject.MemoRepair,
		faultinject.SATSolve, faultinject.RouterHandoff, faultinject.ServerWrite,
	} {
		fired[site] = faultinject.Fired(site)
		if fired[site] == 0 {
			t.Errorf("failpoint %s never fired (hits: %d)", site, faultinject.Hits(site))
		}
	}

	// Panic reconciliation: the three escalating sites panic once per
	// fire, and each panic is recovered at exactly one boundary — the
	// engine's evaluation wrapper, a router worker, or the HTTP handler
	// middleware. Any imbalance means a panic escaped (crash), was
	// double-counted, or a genuine (non-injected) panic occurred.
	m := scrapeMetrics(t, base)

	// Register/drop churn and unknown-name traffic left nothing behind:
	// the router assigns only live instances, and the per-worker
	// placement counts match.
	live := make(map[string]bool)
	for _, info := range m.Instances {
		live[info.Name] = true
	}
	var placed int64
	for _, w := range m.Router.Workers {
		placed += w.Instances
	}
	for name := range m.Router.Assignments {
		if !live[name] {
			t.Errorf("router still assigns dropped or unknown instance %s", name)
		}
	}
	if placed != int64(len(m.Router.Assignments)) {
		t.Errorf("workers hold %d placements for %d assignments", placed, len(m.Router.Assignments))
	}
	if churned.Load() == 0 {
		t.Error("register/drop churn ran no cycle")
	}
	if ghosts.Load() == 0 {
		t.Error("unknown-name client sent no request")
	}

	recovered := m.Engine.Panics + m.Router.Panics + m.HandlerPanics
	injected := fired[faultinject.SnapshotPublish] + fired[faultinject.MemoBuild] + fired[faultinject.SATSolve]
	if recovered != injected {
		t.Fatalf("recovered panics (engine %d + router %d + handler %d = %d) != injected panic faults (%d)",
			m.Engine.Panics, m.Router.Panics, m.HandlerPanics, recovered, injected)
	}
	// Overload/shed accounting is consistent with what clients saw.
	if tally.overloads.Load() > 0 && m.Router.Rejected == 0 {
		t.Fatalf("clients saw %d overload errors but the router rejected none", tally.overloads.Load())
	}
	if m.Router.Shed > 0 && tally.deadlines.Load() == 0 {
		t.Fatalf("router shed %d requests but no client saw a deadline error", m.Router.Shed)
	}

	t.Logf("soak: %d decisions (%d checked-mismatches), %d overloads, %d deadline errors, %d other errors, %d aborted streams",
		tally.decisions.Load(), tally.mismatches.Load(), tally.overloads.Load(),
		tally.deadlines.Load(), tally.errors.Load(), tally.aborted.Load())
	t.Logf("fired: publish=%d build=%d repair=%d sat=%d handoff=%d write=%d; recovered: engine=%d router=%d handler=%d; rejected=%d shed=%d",
		fired[faultinject.SnapshotPublish], fired[faultinject.MemoBuild], fired[faultinject.MemoRepair],
		fired[faultinject.SATSolve], fired[faultinject.RouterHandoff], fired[faultinject.ServerWrite],
		m.Engine.Panics, m.Router.Panics, m.HandlerPanics, m.Router.Rejected, m.Router.Shed)

	// The drain must complete promptly — no wedged worker, no deadlock.
	done := make(chan struct{})
	go func() { s.Drain(); close(done) }()
	select {
	case <-done:
	case <-time.After(15 * time.Second):
		t.Fatal("drain wedged after the chaos soak")
	}
}
