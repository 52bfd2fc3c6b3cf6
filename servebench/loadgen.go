package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"time"
)

// reply is what one request got back, recorded during a phase and
// checked after it, so the timed loop only sends and reads.
type reply struct {
	status  int
	body    []byte
	err     error
	latency time.Duration
}

// drive runs every client's op list on its own goroutine, closed loop:
// a client sends its next request only after the last response byte of
// the previous one. It returns the replies in op order per client and
// the wall time from the first send to the last reply.
func drive(ctx context.Context, d *daemon, lists [][]op) ([][]reply, time.Duration) {
	// The generator shares the CPUs with the daemon: collect its garbage
	// before the phase and none during it, where a collection would take
	// CPU from the daemon at a random point. A phase's replies are a few
	// MiB at most.
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	out := make([][]reply, len(lists))
	var wg sync.WaitGroup
	start := time.Now()
	for c, ops := range lists {
		out[c] = make([]reply, len(ops))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range ops {
				out[c][i] = send(ctx, d, &ops[i])
			}
		}()
	}
	wg.Wait()
	return out, time.Since(start)
}

// methodOf is the HTTP method of an op.
func methodOf(k opKind) string {
	switch k {
	case opDrop:
		return http.MethodDelete
	case opQuery:
		return http.MethodGet
	}
	return http.MethodPost
}

// send issues one op and times it from send to the last response byte.
func send(ctx context.Context, d *daemon, o *op) reply {
	var body io.Reader
	if o.body != nil {
		body = bytes.NewReader(o.body)
	}
	req, err := http.NewRequestWithContext(ctx, methodOf(o.kind), d.base+o.path, body)
	if err != nil {
		return reply{err: err}
	}
	start := time.Now()
	resp, err := d.client.Do(req)
	if err != nil {
		return reply{err: err, latency: time.Since(start)}
	}
	data, err := io.ReadAll(resp.Body)
	lat := time.Since(start)
	resp.Body.Close()
	return reply{status: resp.StatusCode, body: data, err: err, latency: lat}
}

// Operation types and failure classes of the failure accounting.
var (
	opTypes       = []string{"register", "query_line", "mutate", "drop"}
	failureKinds  = []string{"429", "5xx", "504", "4xx", "transport", "line_error", "wrong_answer"}
	opTypeOf      = map[opKind]string{opRegister: "register", opDrop: "drop", opMutate: "mutate", opBatch: "query_line", opQuery: "query_line"}
	wantStatusFor = map[opKind]int{opRegister: http.StatusCreated, opDrop: http.StatusOK, opMutate: http.StatusOK, opBatch: http.StatusOK, opQuery: http.StatusOK}
)

// tally is the failure accounting of a run: attempts per op type and
// failures per (op type, class).
type tally struct {
	attempted map[string]int
	failed    map[string]map[string]int
	// correct counts decisions answered and equal to the reference;
	// yes counts their positive answers per class.
	correct int
	yes     map[string]int
	byClass map[string]int
}

func newTally() *tally {
	t := &tally{attempted: map[string]int{}, failed: map[string]map[string]int{}, yes: map[string]int{}, byClass: map[string]int{}}
	for _, ty := range opTypes {
		t.failed[ty] = map[string]int{}
	}
	return t
}

func (t *tally) fail(ty, kind string, n int) { t.failed[ty][kind] += n }

func (t *tally) totals() (attempted, failed int) {
	for _, ty := range opTypes {
		attempted += t.attempted[ty]
		for _, n := range t.failed[ty] {
			failed += n
		}
	}
	return attempted, failed
}

func (t *tally) wrong() int {
	n := 0
	for _, ty := range opTypes {
		n += t.failed[ty]["wrong_answer"]
	}
	return n
}

// statusClass names the failure class of an unexpected HTTP status.
func statusClass(code int) string {
	switch {
	case code == http.StatusTooManyRequests:
		return "429"
	case code == http.StatusGatewayTimeout:
		return "504"
	case code >= 500:
		return "5xx"
	}
	return "4xx"
}

// decisionLine is one decision on the wire (REST query body, or one
// NDJSON line of a batch response).
type decisionLine struct {
	Index   int    `json:"index"`
	Certain *bool  `json:"certain"`
	Error   string `json:"error"`
}

// check compares a reply against its op's expected outcome and books
// the result in t.
func (t *tally) check(b *bench, o *op, r reply) {
	ty := opTypeOf[o.kind]
	n := 1
	if o.kind == opBatch || o.kind == opQuery {
		n = o.decisions()
	}
	t.attempted[ty] += n
	switch {
	case r.err != nil:
		t.fail(ty, "transport", n)
		return
	case r.status != wantStatusFor[o.kind]:
		t.fail(ty, statusClass(r.status), n)
		return
	}
	if o.kind != opBatch && o.kind != opQuery {
		return
	}
	var lines []decisionLine
	if o.kind == opQuery {
		var l decisionLine
		if err := json.Unmarshal(r.body, &l); err != nil {
			t.fail(ty, "line_error", n)
			return
		}
		lines = []decisionLine{l}
	} else {
		for _, raw := range bytes.Split(bytes.TrimSpace(r.body), []byte("\n")) {
			var l decisionLine
			if err := json.Unmarshal(raw, &l); err != nil {
				l.Error = err.Error()
			}
			lines = append(lines, l)
		}
	}
	for i, w := range o.words {
		switch {
		case i >= len(lines) || lines[i].Error != "" || lines[i].Certain == nil:
			t.fail(ty, "line_error", 1)
		case *lines[i].Certain != o.want[i]:
			t.fail(ty, "wrong_answer", 1)
		default:
			t.correct++
			cls := b.classes[w].String()
			t.byClass[cls]++
			if o.want[i] {
				t.yes[cls]++
			}
		}
	}
	if len(lines) > len(o.words) {
		t.fail(ty, "line_error", len(lines)-len(o.words))
	}
}

// latencies splits the timed replies into query-bearing and mutate
// request latencies.
func latencies(lists [][]op, replies [][]reply) (query, mutate []time.Duration) {
	for c, ops := range lists {
		for i := range ops {
			switch ops[i].kind {
			case opBatch, opQuery:
				query = append(query, replies[c][i].latency)
			case opMutate:
				mutate = append(mutate, replies[c][i].latency)
			}
		}
	}
	return query, mutate
}

// percentile returns the nearest-rank p-quantile of xs, and false when
// fewer than 10 samples lie beyond it (the percentile is then not
// reported).
func percentile(xs []time.Duration, p float64) (time.Duration, bool) {
	if len(xs)-rank(len(xs), p) < 10 {
		return 0, false
	}
	return quantile(xs, p), true
}

// rank is the 1-based nearest rank of the p-quantile among n samples.
// The epsilon keeps products like 100 × 0.9 from rounding up a rank.
func rank(n int, p float64) int {
	return max(1, int(math.Ceil(float64(n)*p-1e-9)))
}

// tail returns the highest of p99, p98, p95 and p90 of xs that has at
// least 10 samples beyond it, with its level. The script fixes each
// workload's request count, so the level is fixed per workload.
func tail(xs []time.Duration) (time.Duration, float64, bool) {
	for _, p := range []float64{0.99, 0.98, 0.95, 0.90} {
		if v, ok := percentile(xs, p); ok {
			return v, p, true
		}
	}
	return 0, 0, false
}

// quantile is the nearest-rank p-quantile of xs (0 for no samples).
func quantile(xs []time.Duration, p float64) time.Duration {
	if len(xs) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[rank(len(s), p)-1]
}

// median of a float sample.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// describeFailures renders the non-zero failure counts.
func (t *tally) describeFailures() string {
	var parts []string
	for _, ty := range opTypes {
		for _, k := range failureKinds {
			if n := t.failed[ty][k]; n > 0 {
				parts = append(parts, fmt.Sprintf("%s/%s=%d", ty, k, n))
			}
		}
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, " ")
}
