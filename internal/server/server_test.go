package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"cqa"
)

// serveFacts is a conflicted instance over a fixed eight-constant
// universe: every block has a conflict partner available, so
// in-universe mutations ride the delta-interning path and the tier
// memos repair instead of rebuilding (same shape as the engine's churn
// soak).
func serveFacts() string {
	consts := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	var b strings.Builder
	for _, rel := range []string{"A", "R", "X", "Y"} {
		for i, k := range consts {
			fmt.Fprintf(&b, "%s(%s,%s) ", rel, k, consts[(i+1)%len(consts)])
			if i%2 == 0 {
				fmt.Fprintf(&b, "%s(%s,%s) ", rel, k, consts[(i+3)%len(consts)])
			}
		}
	}
	return b.String()
}

// serveWords is one query word per tier (FO, NL, PTIME, coNP), so a
// served stream exercises every solver's memo.
var serveWords = []string{"RXRX", "RRX", "RXRYRY", "ARRX"}

func newTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	s := New(Config{RouterWorkers: 4, Window: 32})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Drain() })
	return s, ts
}

func mustPost(t *testing.T, url, body string) (int, string) {
	t.Helper()
	resp, err := http.Post(url, "text/plain", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(out)
}

func mustGetJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("GET %s: %d %s", url, resp.StatusCode, body)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
}

func scrapeMetrics(t *testing.T, base string) Metrics {
	t.Helper()
	var m Metrics
	mustGetJSON(t, base+"/metrics", &m)
	return m
}

// runBatch streams one batch request of the given query words and
// returns the decoded responses.
func runBatch(t *testing.T, base, name string, words []string) []queryResponse {
	t.Helper()
	code, body := mustPost(t, base+"/instances/"+name+"/batch", strings.Join(words, "\n")+"\n")
	if code != http.StatusOK {
		t.Fatalf("batch: %d %s", code, body)
	}
	var out []queryResponse
	dec := json.NewDecoder(strings.NewReader(body))
	for dec.More() {
		var r queryResponse
		if err := dec.Decode(&r); err != nil {
			t.Fatalf("decode batch response: %v (%s)", err, body)
		}
		out = append(out, r)
	}
	return out
}

// TestServeQueryEchoesWireQuery: a REST query's response names the
// query exactly as the client sent it. "A b" (relation A, then b) and
// "Ab" (one relation Ab) are different words whose display strings
// collide, so echoing the parsed word would answer both as "Ab".
func TestServeQueryEchoesWireQuery(t *testing.T) {
	_, ts := newTestServer(t)
	const facts = "A(0,1) b(1,2) Ab(0,1)"
	if code, body := mustPost(t, ts.URL+"/instances/x", facts); code != http.StatusCreated {
		t.Fatalf("register: %d %s", code, body)
	}
	db, err := cqa.ParseFacts(facts)
	if err != nil {
		t.Fatal(err)
	}
	for param, q := range map[string]string{"A%20b": "A b", "Ab": "Ab"} {
		var resp queryResponse
		mustGetJSON(t, ts.URL+"/instances/x/query?q="+param, &resp)
		if resp.Query != q {
			t.Errorf("?q=%s answered as query %q, want %q", param, resp.Query, q)
		}
		if want := cqa.Certain(cqa.MustParseQuery(q), db).Certain; resp.Certain == nil || *resp.Certain != want {
			t.Errorf("?q=%s decided %v, want %v", param, resp.Certain, want)
		}
	}
}

// TestServeRejectsOverlongQueries: a word of more than maxQuerySymbols
// symbols is refused before anything compiles it, with 400 over REST
// and a per-line error in a batch stream whose other lines still
// answer. A word at the limit is answered.
func TestServeRejectsOverlongQueries(t *testing.T) {
	s, ts := newTestServer(t)
	if code, body := mustPost(t, ts.URL+"/instances/alpha", serveFacts()); code != http.StatusCreated {
		t.Fatalf("register: %d %s", code, body)
	}
	var warm queryResponse
	mustGetJSON(t, ts.URL+"/instances/alpha/query?q=RX", &warm)
	misses := s.reg.Engine().Stats().Plans.Misses

	long := strings.Repeat("R", maxQuerySymbols) + "X"
	resp, err := http.Get(ts.URL + "/instances/alpha/query?q=" + long)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("REST query of %d symbols: status %d, want 400", len(long), resp.StatusCode)
	}
	out := runBatch(t, ts.URL, "alpha", []string{"RX", long, `{"query":"` + long + `"}`, "RX"})
	if len(out) != 4 {
		t.Fatalf("batch: want 4 responses, got %+v", out)
	}
	for i, r := range out {
		if overlong := i == 1 || i == 2; overlong != (r.Error != "") || overlong == (r.Certain != nil) {
			t.Errorf("batch line %d: %+v", i+1, r)
		}
	}
	if got := s.reg.Engine().Stats().Plans.Misses; got != misses {
		t.Errorf("overlong words reached the plan cache: misses %d → %d", misses, got)
	}

	atLimit := strings.Repeat("R", maxQuerySymbols-1) + "X"
	var r queryResponse
	mustGetJSON(t, ts.URL+"/instances/alpha/query?q="+atLimit, &r)
	if r.Error != "" || r.Certain == nil {
		t.Errorf("REST query of %d symbols: %+v", len(atLimit), r)
	}
	if out := runBatch(t, ts.URL, "alpha", []string{atLimit}); len(out) != 1 || out[0].Certain == nil {
		t.Errorf("batch line of %d symbols: %+v", len(atLimit), out)
	}
}

// TestServeEndToEnd is the serve-loop e2e of the issue: register over
// HTTP, stream queries, mutate, and assert via /metrics that
// post-mutation decisions are lineage repairs (not cold builds) and
// that the instance→worker routing stayed stable across ≥3 batch
// boundaries.
func TestServeEndToEnd(t *testing.T) {
	_, ts := newTestServer(t)
	base := ts.URL

	code, body := mustPost(t, base+"/instances/alpha", serveFacts())
	if code != http.StatusCreated {
		t.Fatalf("register: %d %s", code, body)
	}

	// Reference decisions computed out of band on an identical instance.
	refDB, err := cqa.ParseFacts(serveFacts())
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[string]bool)
	for _, w := range serveWords {
		want[w] = cqa.Certain(cqa.MustParseQuery(w), refDB).Certain
	}

	var stream []string
	for i := 0; i < 16; i++ {
		stream = append(stream, serveWords[i%len(serveWords)])
	}

	// ≥3 batch boundaries: separate HTTP requests, same instance.
	assigned := scrapeMetrics(t, base).Router.Assignments["alpha"]
	for round := 0; round < 3; round++ {
		for i, resp := range runBatch(t, base, "alpha", stream) {
			if resp.Error != "" {
				t.Fatalf("round %d response %d: %s", round, i, resp.Error)
			}
			if resp.Certain == nil || *resp.Certain != want[resp.Query] {
				t.Fatalf("round %d: %s decided %v, want %v", round, resp.Query, resp.Certain, want[resp.Query])
			}
		}
		m := scrapeMetrics(t, base)
		if got := m.Router.Assignments["alpha"]; got != assigned {
			t.Fatalf("round %d: instance moved from worker %d to %d", round, assigned, got)
		}
	}

	// Steady state reached: every tier has built its artifacts. More
	// rounds must be pure warm hits — zero new cold builds or repairs.
	warm := scrapeMetrics(t, base)
	for round := 0; round < 3; round++ {
		runBatch(t, base, "alpha", stream)
	}
	m := scrapeMetrics(t, base)
	if m.Engine.Memo.ColdBuilds != warm.Engine.Memo.ColdBuilds {
		t.Fatalf("warm rounds cold-built: %+v -> %+v", warm.Engine.Memo, m.Engine.Memo)
	}
	if m.Engine.Memo.Hits <= warm.Engine.Memo.Hits {
		t.Fatalf("warm rounds did not hit the memo: %+v -> %+v", warm.Engine.Memo, m.Engine.Memo)
	}

	// In-universe mutation: grow one conflicted block (constants and
	// relations all exist, no block emptied), so the new snapshot is a
	// structural delta and the next decision per tier is a repair.
	code, body = mustPost(t, base+"/instances/alpha/mutate",
		`{"add":["R(a,e)","A(b,f)"],"remove":["R(a,d)"]}`)
	if code != http.StatusOK {
		t.Fatalf("mutate: %d %s", code, body)
	}
	var info cqa.InstanceInfo
	if err := json.Unmarshal([]byte(body), &info); err != nil {
		t.Fatal(err)
	}
	if info.Mutations != 1 {
		t.Fatalf("mutate info: %+v", info)
	}

	preMut := scrapeMetrics(t, base)
	for i, resp := range runBatch(t, base, "alpha", stream) {
		if resp.Error != "" {
			t.Fatalf("post-mutation response %d: %s", i, resp.Error)
		}
	}
	post := scrapeMetrics(t, base)
	if got := post.Router.Assignments["alpha"]; got != assigned {
		t.Fatalf("mutation moved instance to worker %d from %d", got, assigned)
	}
	// One decision per word lands on the new snapshot. The NL,
	// fixpoint and SAT tiers repair their artifacts from the parent's;
	// the FO tier has no repair for a mutation touching one of its
	// relations (its linear Lemma 12 DP re-runs cold), and RXRX reads R.
	if got := post.Engine.Memo.Repairs - preMut.Engine.Memo.Repairs; got != uint64(len(serveWords)-1) {
		t.Fatalf("post-mutation repairs = %d, want %d (every non-FO word): %+v -> %+v",
			got, len(serveWords)-1, preMut.Engine.Memo, post.Engine.Memo)
	}
	if got := post.Engine.Memo.ColdBuilds - preMut.Engine.Memo.ColdBuilds; got != 1 {
		t.Fatalf("post-mutation cold builds = %d, want 1 (the FO word only): %+v -> %+v",
			got, preMut.Engine.Memo, post.Engine.Memo)
	}
}

// TestServeWarmStream10k is the 10k-request acceptance check: after
// warmup, a long stream against one named instance shows zero cold
// rebuilds in /metrics — cross-batch affinity holds end to end.
func TestServeWarmStream10k(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-request stream")
	}
	_, ts := newTestServer(t)
	base := ts.URL
	if code, body := mustPost(t, base+"/instances/hot", serveFacts()); code != http.StatusCreated {
		t.Fatalf("register: %d %s", code, body)
	}

	runBatch(t, base, "hot", serveWords) // warmup: one decision per tier
	warm := scrapeMetrics(t, base)

	const total = 10000
	chunk := make([]string, 1000)
	for i := range chunk {
		chunk[i] = serveWords[i%len(serveWords)]
	}
	served := 0
	for served < total {
		for _, resp := range runBatch(t, base, "hot", chunk) {
			if resp.Error != "" {
				t.Fatalf("request %d: %s", served, resp.Error)
			}
			served++
		}
	}
	m := scrapeMetrics(t, base)
	if m.Engine.Memo.ColdBuilds != warm.Engine.Memo.ColdBuilds {
		t.Fatalf("stream cold-built after warmup: %+v -> %+v", warm.Engine.Memo, m.Engine.Memo)
	}
	if m.Engine.Memo.Misses != warm.Engine.Memo.Misses {
		t.Fatalf("stream rebuilt artifacts after warmup: %+v -> %+v", warm.Engine.Memo, m.Engine.Memo)
	}
	// Three of the four tiers memoize per snapshot (FO rewrites have no
	// instance-bound artifact), so 3/4 of the stream must be warm hits.
	if hits := m.Engine.Memo.Hits - warm.Engine.Memo.Hits; hits < total/4*3 {
		t.Fatalf("want >= %d warm hits, got %d", total/4*3, hits)
	}
}

func TestServeBatchWindowingAndErrors(t *testing.T) {
	s, ts := newTestServer(t)
	_ = s
	base := ts.URL
	if code, body := mustPost(t, base+"/instances/w", "R(0,1) R(1,2) R(1,3) R(2,3) X(3,4)"); code != http.StatusCreated {
		t.Fatalf("register: %d %s", code, body)
	}
	// 2.5 windows of requests (window=32), with JSON and bare lines
	// mixed plus a malformed line: responses come back in order, the
	// bad line answered per-line. One line is longer than 64 KiB, so
	// the line scanner must grow its buffer.
	var words []string
	for i := 0; i < 80; i++ {
		if i == 40 {
			words = append(words, `{"query": "???"}`)
			continue
		}
		if i == 60 {
			words = append(words, `{"query": "RRX"`+strings.Repeat(" ", 100_000)+`}`)
			continue
		}
		if i%2 == 0 {
			words = append(words, `{"query": "RRX"}`)
		} else {
			words = append(words, "RRX")
		}
	}
	resps := runBatch(t, base, "w", words)
	if len(resps) != 80 {
		t.Fatalf("want 80 responses, got %d", len(resps))
	}
	for i, resp := range resps {
		if resp.Index != i+1 {
			t.Fatalf("response %d has index %d: stream reordered", i, resp.Index)
		}
		if i == 40 {
			if resp.Error == "" {
				t.Fatalf("malformed line got a decision: %+v", resp)
			}
			continue
		}
		if resp.Error != "" || resp.Certain == nil || !*resp.Certain {
			t.Fatalf("response %d: %+v", i, resp)
		}
	}
}

func TestServeHTTPErrors(t *testing.T) {
	_, ts := newTestServer(t)
	base := ts.URL

	if code, _ := mustPost(t, base+"/instances/dup", "R(0,1)"); code != http.StatusCreated {
		t.Fatalf("register: %d", code)
	}
	if code, _ := mustPost(t, base+"/instances/dup", "R(0,1)"); code != http.StatusConflict {
		t.Fatalf("duplicate register: %d, want 409", code)
	}
	if code, body := mustPost(t, base+"/instances/bad", "not-a-fact"); code != http.StatusBadRequest {
		t.Fatalf("bad facts: %d %s", code, body)
	}
	resp, err := http.Get(base + "/instances/missing/query?q=RRX")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("query on missing instance: %d, want 404", resp.StatusCode)
	}
	if code, _ := mustPost(t, base+"/instances/dup/mutate", `{"add":["nope"]}`); code != http.StatusBadRequest {
		t.Fatalf("bad mutate fact: %d, want 400", code)
	}

	req, _ := http.NewRequest(http.MethodDelete, base+"/instances/dup", nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("drop: %d", dresp.StatusCode)
	}
	var names []cqa.InstanceInfo
	mustGetJSON(t, base+"/instances", &names)
	for _, info := range names {
		if info.Name == "dup" {
			t.Fatalf("dropped instance still listed: %+v", names)
		}
	}
}

// TestServeUnknownNamesClaimNoAssignment: query, mutate and batch
// requests for names nobody registered are answered not-found (per line
// for a batch) and leave the router's assignment table empty, so a
// client cannot grow it with made-up names.
func TestServeUnknownNamesClaimNoAssignment(t *testing.T) {
	s, ts := newTestServer(t)
	base := ts.URL
	for i := 0; i < 20; i++ {
		resp, err := http.Get(fmt.Sprintf("%s/instances/ghost%d/query?q=RRX", base, i))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("query on unknown name: %d, want 404", resp.StatusCode)
		}
		if code, body := mustPost(t, fmt.Sprintf("%s/instances/ghostm%d/mutate", base, i), `{"add":["R(a,b)"]}`); code != http.StatusNotFound {
			t.Fatalf("mutate on unknown name: %d %s, want 404", code, body)
		}
		for _, r := range runBatch(t, base, fmt.Sprintf("ghostb%d", i), serveWords) {
			if !strings.Contains(r.Error, cqa.ErrInstanceNotFound.Error()) {
				t.Fatalf("batch line on unknown name: %+v, want a not-found error", r)
			}
		}
	}
	if a := s.router.Stats().Assignments; len(a) != 0 {
		t.Errorf("unknown names left %d router assignments: %v", len(a), a)
	}
}

// TestServeDrain: after Drain, evaluation endpoints answer 503 and
// nothing panics; metadata endpoints still work.
func TestServeDrain(t *testing.T) {
	s := New(Config{RouterWorkers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	if code, body := mustPost(t, ts.URL+"/instances/d", "R(0,1)"); code != http.StatusCreated {
		t.Fatalf("register: %d %s", code, body)
	}
	s.Drain()
	resp, err := http.Get(ts.URL + "/instances/d/query?q=RRX")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("query after drain: %d, want 503", resp.StatusCode)
	}
	var m Metrics
	mustGetJSON(t, ts.URL+"/metrics", &m)
	if len(m.Router.Workers) != 2 {
		t.Fatalf("metrics after drain: %+v", m)
	}
}
