package server

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"cqa"
	"cqa/internal/faultinject"
)

// instanceQueries returns the served query count of the named instance
// from a metrics snapshot.
func instanceQueries(m Metrics, name string) uint64 {
	for _, info := range m.Instances {
		if info.Name == name {
			return info.Queries
		}
	}
	return 0
}

// getWithTimeout GETs url with the CQA-Timeout-Ms header set.
func getWithTimeout(t *testing.T, url, ms string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ms != "" {
		req.Header.Set(TimeoutHeader, ms)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// stallWorker parks the named instance's fast-lane worker inside a
// task and returns the release channel. The caller must close it.
func stallWorker(t *testing.T, s *Server, name string) chan struct{} {
	t.Helper()
	release := make(chan struct{})
	started := make(chan struct{})
	go s.router.Do(context.Background(), name, func() { close(started); <-release })
	<-started
	return release
}

func TestServeHealthReady(t *testing.T) {
	s := New(Config{RouterWorkers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, ep := range []string{"/healthz", "/readyz"} {
		resp, err := http.Get(ts.URL + ep)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s while serving: %d, want 200", ep, resp.StatusCode)
		}
	}
	s.Drain()
	// Liveness stays green — the process is still up — but readiness
	// flips so load balancers stop routing.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz after drain: %d, want 200", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/readyz after drain: %d, want 503", resp.StatusCode)
	}
}

// TestServeQueuedDeadlineShed is the queued-expiry acceptance check: a
// request whose deadline passes while it waits in a lane queue is
// answered 504 without ever being evaluated — asserted via stats: the
// shed counter moves, while the memo counters and the instance's query
// count do not.
func TestServeQueuedDeadlineShed(t *testing.T) {
	s, ts := newTestServer(t)
	base := ts.URL
	if code, body := mustPost(t, base+"/instances/x", serveFacts()); code != http.StatusCreated {
		t.Fatalf("register: %d %s", code, body)
	}
	// Warm the plan and the tier memo so an evaluated request would
	// show up as a memo hit, not hide behind a compile.
	resp := getWithTimeout(t, base+"/instances/x/query?q=RRX", "")
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warmup query: %d", resp.StatusCode)
	}
	pre := scrapeMetrics(t, base)

	release := stallWorker(t, s, "x")
	w := s.router.WorkerFor("x")

	respCh := make(chan *http.Response, 1)
	go func() {
		respCh <- getWithTimeout(t, base+"/instances/x/query?q=RRX", "30")
	}()
	// Wait until the request is actually queued behind the stalled
	// worker, let its 30ms budget expire, then release the worker so it
	// dequeues the corpse.
	deadline := time.Now().Add(5 * time.Second)
	for s.router.Stats().Workers[w].Queued < 1 {
		if time.Now().After(deadline) {
			t.Fatal("request never queued")
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(50 * time.Millisecond)
	close(release)

	qResp := <-respCh
	body, _ := io.ReadAll(qResp.Body)
	qResp.Body.Close()
	if qResp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("expired-in-queue request: %d %s, want 504", qResp.StatusCode, body)
	}
	post := scrapeMetrics(t, base)
	if post.Router.Shed != pre.Router.Shed+1 {
		t.Fatalf("Shed = %d, want %d", post.Router.Shed, pre.Router.Shed+1)
	}
	// Never evaluated: no memo traffic, no cold build, no query counted.
	if post.Engine.Memo.Hits != pre.Engine.Memo.Hits ||
		post.Engine.Memo.Misses != pre.Engine.Memo.Misses ||
		post.Engine.Memo.ColdBuilds != pre.Engine.Memo.ColdBuilds {
		t.Fatalf("shed request touched the memos: %+v -> %+v", pre.Engine.Memo, post.Engine.Memo)
	}
	if got, want := instanceQueries(post, "x"), instanceQueries(pre, "x"); got != want {
		t.Fatalf("shed request counted as served: queries %d -> %d", want, got)
	}
}

// TestServeBatchLineDeadline: a timeout_ms NDJSON field bounds its own
// line. A line whose per-line deadline passes while the chunk waits
// behind a stalled worker is answered with a deadline error without
// being evaluated, while its neighbors in the same chunk still decide.
func TestServeBatchLineDeadline(t *testing.T) {
	s, ts := newTestServer(t)
	base := ts.URL
	if code, body := mustPost(t, base+"/instances/b", serveFacts()); code != http.StatusCreated {
		t.Fatalf("register: %d %s", code, body)
	}
	runBatch(t, base, "b", []string{"RRX"}) // warm
	pre := scrapeMetrics(t, base)

	release := stallWorker(t, s, "b")
	respCh := make(chan []queryResponse, 1)
	go func() {
		code, body := mustPost(t, base+"/instances/b/batch",
			`{"query":"RRX","timeout_ms":30}`+"\n"+`{"query":"RRX"}`+"\n")
		if code != http.StatusOK {
			t.Errorf("batch: %d %s", code, body)
		}
		var out []queryResponse
		dec := json.NewDecoder(strings.NewReader(body))
		for dec.More() {
			var r queryResponse
			if err := dec.Decode(&r); err != nil {
				t.Errorf("decode: %v", err)
				break
			}
			out = append(out, r)
		}
		respCh <- out
	}()
	time.Sleep(80 * time.Millisecond) // line deadline (30ms) expires while queued
	close(release)

	out := <-respCh
	if len(out) != 2 {
		t.Fatalf("got %d responses, want 2: %+v", len(out), out)
	}
	if out[0].Error == "" || !strings.Contains(out[0].Error, "deadline") {
		t.Fatalf("expired line answered without a deadline error: %+v", out[0])
	}
	if out[1].Error != "" || out[1].Certain == nil {
		t.Fatalf("live neighbor line failed: %+v", out[1])
	}
	// Exactly one query evaluated (the live line); the expired one was
	// never counted.
	post := scrapeMetrics(t, base)
	if got, want := instanceQueries(post, "b"), instanceQueries(pre, "b")+1; got != want {
		t.Fatalf("instance queries %d, want %d (expired line must not evaluate)", got, want)
	}
}

// hugeBudgetMs is a client budget of about 2.4 million years: too many
// nanoseconds for a time.Duration, so a plain conversion wraps it
// around to 64ns.
const hugeBudgetMs = "76480200929599801"

// TestServeHugeDeadlineREST: a CQA-Timeout-Ms budget past the range of
// time.Duration saturates; the query is decided, not expired.
func TestServeHugeDeadlineREST(t *testing.T) {
	_, ts := newTestServer(t)
	if code, body := mustPost(t, ts.URL+"/instances/h", serveFacts()); code != http.StatusCreated {
		t.Fatalf("register: %d %s", code, body)
	}
	resp := getWithTimeout(t, ts.URL+"/instances/h/query?q=RX", hugeBudgetMs)
	defer resp.Body.Close()
	var r queryResponse
	if err := json.NewDecoder(resp.Body).Decode(&r); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || r.Certain == nil {
		t.Fatalf("query with a %sms budget: %d %+v", hugeBudgetMs, resp.StatusCode, r)
	}
}

// TestServeHugeDeadlineBatch: the same budget as a batch line's
// timeout_ms saturates too.
func TestServeHugeDeadlineBatch(t *testing.T) {
	_, ts := newTestServer(t)
	if code, body := mustPost(t, ts.URL+"/instances/h", serveFacts()); code != http.StatusCreated {
		t.Fatalf("register: %d %s", code, body)
	}
	out := runBatch(t, ts.URL, "h", []string{`{"query":"RX","timeout_ms":` + hugeBudgetMs + `}`})
	if len(out) != 1 || out[0].Error != "" || out[0].Certain == nil {
		t.Fatalf("batch line with a %sms budget: %+v", hugeBudgetMs, out)
	}
}

// TestServeOverloadRejects: a full fast-lane queue answers a REST query
// 429 with Retry-After immediately, and a batch chunk with per-line
// overloaded errors — never a blocked connection.
func TestServeOverloadRejects(t *testing.T) {
	s := New(Config{RouterWorkers: 1, QueueDepth: 1, Window: 4})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Drain() })
	base := ts.URL
	if code, body := mustPost(t, base+"/instances/o", serveFacts()); code != http.StatusCreated {
		t.Fatalf("register: %d %s", code, body)
	}
	release := stallWorker(t, s, "o")
	defer func() {
		if release != nil {
			close(release)
		}
	}()
	// Fill the single queue slot.
	go s.router.Do(context.Background(), "o", func() {})
	w := s.router.WorkerFor("o")
	deadline := time.Now().Add(5 * time.Second)
	for s.router.Stats().Workers[w].Queued < 1 {
		if time.Now().After(deadline) {
			t.Fatal("queue never filled")
		}
		time.Sleep(time.Millisecond)
	}

	start := time.Now()
	resp := getWithTimeout(t, base+"/instances/o/query?q=RRX", "")
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("query on full lane: %d %s, want 429", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("rejection took %v: connection blocked instead of immediate 429", d)
	}

	// Batch on the saturated lane: per-line overloaded errors, stream
	// still answers in order.
	code, bbody := mustPost(t, base+"/instances/o/batch", "RRX\nRRX\n")
	if code != http.StatusOK {
		t.Fatalf("batch on full lane: %d %s", code, bbody)
	}
	var out []queryResponse
	dec := json.NewDecoder(strings.NewReader(bbody))
	for dec.More() {
		var r queryResponse
		if err := dec.Decode(&r); err != nil {
			t.Fatalf("decode: %v (%s)", err, bbody)
		}
		out = append(out, r)
	}
	if len(out) != 2 {
		t.Fatalf("got %d responses, want 2", len(out))
	}
	for i, r := range out {
		if r.Error == "" || !strings.Contains(r.Error, "overloaded") {
			t.Fatalf("line %d on full lane: %+v, want overloaded error", i, r)
		}
	}
	if got := s.router.Stats().Rejected; got < 2 {
		t.Fatalf("Rejected = %d, want >= 2", got)
	}
	close(release)
	release = nil
}

// TestServeHeavyLaneSaturationKeepsFastLaneLive is the admission-
// control acceptance check at the HTTP layer: with the heavy lane
// saturated by coNP-bound work, a coNP query is rejected 429 while a
// warm PTIME/NL query on the same instance still answers 200.
func TestServeHeavyLaneSaturationKeepsFastLaneLive(t *testing.T) {
	s := New(Config{RouterWorkers: 2, HeavyWorkers: 1, HeavyQueueDepth: 1, Window: 8})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Drain() })
	base := ts.URL
	if code, body := mustPost(t, base+"/instances/h", serveFacts()); code != http.StatusCreated {
		t.Fatalf("register: %d %s", code, body)
	}
	// Saturate the heavy lane: one executing, one queued.
	release := make(chan struct{})
	started := make(chan struct{})
	go s.router.DoHeavy(context.Background(), func() { close(started); <-release })
	<-started
	go s.router.DoHeavy(context.Background(), func() {})
	deadline := time.Now().Add(5 * time.Second)
	for s.router.Stats().Heavy.Queued < 1 {
		if time.Now().After(deadline) {
			t.Fatal("heavy lane never saturated")
		}
		time.Sleep(time.Millisecond)
	}

	// ARRX compiles to the SAT tier → heavy lane → 429.
	resp := getWithTimeout(t, base+"/instances/h/query?q=ARRX", "")
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("coNP query on saturated heavy lane: %d, want 429", resp.StatusCode)
	}
	// RRX rides the fast lane, unaffected.
	resp = getWithTimeout(t, base+"/instances/h/query?q=RRX", "")
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fast-lane query stalled by heavy saturation: %d %s", resp.StatusCode, body)
	}
	close(release)
}

// TestServePanicIsolationHTTP: an injected panic inside a served
// decision answers that request 500, leaves the daemon serving, and is
// visible in /metrics as a recovered engine panic.
func TestServePanicIsolationHTTP(t *testing.T) {
	faultinject.Reset()
	t.Cleanup(faultinject.Reset)
	_, ts := newTestServer(t)
	base := ts.URL
	if code, body := mustPost(t, base+"/instances/p", serveFacts()); code != http.StatusCreated {
		t.Fatalf("register: %d %s", code, body)
	}
	// Reference decision before the fault is armed.
	refDB, err := cqa.ParseFacts(serveFacts())
	if err != nil {
		t.Fatal(err)
	}
	want := cqa.Certain(cqa.MustParseQuery("ARRX"), refDB).Certain

	faultinject.Enable(faultinject.SATSolve, 1, false)
	resp := getWithTimeout(t, base+"/instances/p/query?q=ARRX", "")
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicking decision: %d %s, want 500", resp.StatusCode, body)
	}
	faultinject.Disable(faultinject.SATSolve)

	m := scrapeMetrics(t, base)
	if m.Engine.Panics != 1 {
		t.Fatalf("engine panics = %d, want 1", m.Engine.Panics)
	}
	// The worker, the instance, and the daemon survived: the same
	// query now decides correctly.
	resp = getWithTimeout(t, base+"/instances/p/query?q=ARRX", "")
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("decision after recovered panic: %d %s", resp.StatusCode, body)
	}
	var qr queryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	if qr.Certain == nil || *qr.Certain != want {
		t.Fatalf("decision after recovered panic = %+v, want certain=%v", qr, want)
	}
}

// TestServeMemWatermark: with the soft limit set below any real heap,
// the watcher degrades the engine's memo scale; decisions stay correct
// while degraded.
func TestServeMemWatermark(t *testing.T) {
	s := New(Config{RouterWorkers: 1, MemSoftLimit: 1, MemCheckInterval: 5 * time.Millisecond})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Drain() })
	base := ts.URL
	if code, body := mustPost(t, base+"/instances/m", serveFacts()); code != http.StatusCreated {
		t.Fatalf("register: %d %s", code, body)
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.reg.Engine().MemoScale() != DegradedMemoScale {
		if time.Now().After(deadline) {
			t.Fatalf("watermark never degraded the memo scale: %g", s.reg.Engine().MemoScale())
		}
		time.Sleep(5 * time.Millisecond)
	}
	for _, resp := range runBatch(t, base, "m", serveWords) {
		if resp.Error != "" || resp.Certain == nil {
			t.Fatalf("decision under degraded memos: %+v", resp)
		}
	}
}
