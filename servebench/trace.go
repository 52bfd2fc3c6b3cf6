package main

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"cqa"
	"cqa/internal/instance"
	"cqa/internal/memo"
	"cqa/internal/server"
)

// span is one call at a layer boundary of the traced replay.
type span struct {
	id, parent int // parent 0: a root
	req        int // the op (request) the call serves
	name       string
	start, end time.Duration // since the tracer's origin
	// tier and memo label cqa.Engine.CertainOptCtx spans with the plan's
	// tier and the memo outcome (hit, repair, cold or none); memo labels
	// cqa.Engine.Compile spans with the plan cache outcome (hit or miss).
	tier, memo string
}

// tracer keeps spans in memory. A disabled tracer records nothing, so
// the same replay code measures the run with spans off.
type tracer struct {
	on     bool
	origin time.Time
	mu     sync.Mutex // router workers record spans of the tasks they run
	spans  []span
}

func newTracer(on bool) *tracer { return &tracer{on: on, origin: time.Now()} }

// begin opens a span and returns its id (0 when tracing is off).
func (t *tracer) begin(name string, parent, req int) int {
	if !t.on {
		return 0
	}
	t.mu.Lock()
	// Read the clock under the lock, so spans are stored in start order.
	now := time.Since(t.origin)
	t.spans = append(t.spans, span{id: len(t.spans) + 1, parent: parent, req: req, name: name, start: now})
	id := len(t.spans)
	t.mu.Unlock()
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	if id == 0 {
		return
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	t.spans[id-1].end = now
	t.mu.Unlock()
}

// label sets the labels of span id.
func (t *tracer) label(id int, tier, memo string) {
	if id == 0 {
		return
	}
	t.mu.Lock()
	t.spans[id-1].tier, t.spans[id-1].memo = tier, memo
	t.mu.Unlock()
}

// Span names: one per traced public call.
const (
	spanRequest = "request"
	spanParse   = "cqa.ParseFacts"
	spanQuery   = "cqa.ParseQuery"
	spanCompile = "cqa.Engine.Compile"
	spanIntern  = "instance.Interned"
	spanDo      = "server.Router.Do"
	spanDoHeavy = "server.Router.DoHeavy"
	spanTask    = "router.task"
	spanDecide  = "cqa.Engine.CertainOptCtx"
	spanMutate  = "cqa.Registry.Mutate"
	spanCSV     = "instance.ReadCSVParallel"
	spanHandler = "server.Handler"
)

var tierNames = map[cqa.Method]string{cqa.MethodFO: "fo", cqa.MethodNL: "nl", cqa.MethodFixpoint: "fixpoint", cqa.MethodSAT: "conp"}

// replayer pushes scripts through a fresh Registry, Engine and Router
// in process, calling the layers the way the daemon's handlers do.
type replayer struct {
	b        *bench
	eng      *cqa.Engine
	reg      *cqa.Registry
	router   *server.Router
	tr       *tracer
	dbs      map[string]*cqa.Instance
	compiled map[string]bool
	// misses counts decisions that disagree with the reference.
	misses int
}

func newReplayer(b *bench, tr *tracer) *replayer {
	eng := cqa.NewEngine(cqa.EngineConfig{})
	return &replayer{
		b: b, eng: eng, reg: cqa.NewRegistry(eng), router: server.NewRouter(0, 0, 0, 0), tr: tr,
		dbs: map[string]*cqa.Instance{}, compiled: map[string]bool{},
	}
}

// apply replays one op under a request span.
func (r *replayer) apply(ctx context.Context, o *op) error {
	root := r.tr.begin(spanRequest, 0, o.id)
	defer r.tr.end(root)
	switch o.kind {
	case opRegister:
		s := r.tr.begin(spanParse, root, o.id)
		db, err := cqa.ParseFacts(string(o.body))
		r.tr.end(s)
		if err != nil {
			return err
		}
		if err := r.reg.Register(o.name, db); err != nil {
			return err
		}
		r.dbs[o.name] = db
		r.router.WorkerFor(o.name)
		s = r.tr.begin(spanIntern, root, o.id)
		db.Interned()
		r.tr.end(s)
	case opDrop:
		r.reg.Drop(o.name)
		delete(r.dbs, o.name)
	case opMutate:
		var err error
		doErr := r.do(ctx, root, o, false, func(task int) {
			s := r.tr.begin(spanMutate, task, o.id)
			_, err = r.reg.Mutate(o.name, o.mut)
			r.tr.end(s)
		})
		if doErr != nil {
			return doErr
		}
		return err
	case opBatch, opQuery:
		qs := make([]cqa.Query, len(o.words))
		for i, w := range o.words {
			s := r.tr.begin(spanQuery, root, o.id)
			q, err := cqa.ParseQuery(r.b.words[w])
			r.tr.end(s)
			if err != nil {
				return err
			}
			qs[i] = q
		}
		plans := make([]*cqa.Plan, len(qs))
		var fast, heavy []int
		for i, q := range qs {
			// The first Compile of a word compiles; later ones are plan
			// cache lookups.
			outcome := "hit"
			if w := r.b.words[o.words[i]]; !r.compiled[w] {
				r.compiled[w] = true
				outcome = "miss"
			}
			s := r.tr.begin(spanCompile, root, o.id)
			plans[i] = r.eng.Compile(q)
			r.tr.end(s)
			r.tr.label(s, "", outcome)
			if plans[i].Method() == cqa.MethodSAT {
				heavy = append(heavy, i)
			} else {
				fast = append(fast, i)
			}
		}
		// Like the daemon's batch handler, the heavy lane runs
		// concurrently with the fast lane when a request needs both.
		var wg sync.WaitGroup
		var heavyMisses int
		var heavyErr error
		if len(heavy) > 0 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				heavyMisses, heavyErr = r.lane(ctx, root, o, true, heavy, qs, plans)
			}()
		}
		fastMisses, err := r.lane(ctx, root, o, false, fast, qs, plans)
		wg.Wait()
		r.misses += fastMisses + heavyMisses
		return errors.Join(err, heavyErr)
	}
	return nil
}

// lane decides the items idx of o as one router task and counts the
// answers that disagree with the reference.
func (r *replayer) lane(ctx context.Context, root int, o *op, heavy bool, idx []int, qs []cqa.Query, plans []*cqa.Plan) (int, error) {
	if len(idx) == 0 {
		return 0, nil
	}
	misses := 0
	var err error
	doErr := r.do(ctx, root, o, heavy, func(task int) {
		for _, i := range idx {
			var res cqa.Result
			if res, err = r.decide(ctx, task, o, qs[i], plans[i]); err != nil {
				return
			}
			if res.Certain != o.want[i] {
				misses++
			}
		}
	})
	return misses, errors.Join(doErr, err)
}

// do runs fn on the router lane the daemon would use, under a span for
// the submission and one for the task itself; their difference is the
// time the task waited in the lane.
func (r *replayer) do(ctx context.Context, parent int, o *op, heavy bool, fn func(task int)) error {
	name := spanDo
	if heavy {
		name = spanDoHeavy
	}
	s := r.tr.begin(name, parent, o.id)
	task := func() {
		t := r.tr.begin(spanTask, s, o.id)
		fn(t)
		r.tr.end(t)
	}
	var err error
	if heavy {
		err = r.router.DoHeavy(ctx, task)
	} else {
		err = r.router.Do(ctx, o.name, task)
	}
	r.tr.end(s)
	return err
}

// decide runs one decision under a span labelled with the plan's tier
// and the memo outcome read from the plan's memo counters. The two
// lanes of a batch decide concurrently, but on different plans, so a
// plan's counter delta is its own decision's.
func (r *replayer) decide(ctx context.Context, parent int, o *op, q cqa.Query, p *cqa.Plan) (cqa.Result, error) {
	if !r.tr.on {
		return r.eng.CertainOptCtx(ctx, q, r.dbs[o.name], cqa.Options{})
	}
	before := p.MemoStats()
	s := r.tr.begin(spanDecide, parent, o.id)
	res, err := r.eng.CertainOptCtx(ctx, q, r.dbs[o.name], cqa.Options{})
	r.tr.end(s)
	r.tr.label(s, tierNames[p.Method()], memoOutcome(before, p.MemoStats()))
	return res, err
}

// memoOutcome classifies a decision by its plan's memo counter delta.
func memoOutcome(before, after memo.Stats) string {
	switch {
	case after.ColdBuilds() > before.ColdBuilds():
		return "cold"
	case after.Repairs > before.Repairs:
		return "repair"
	case after.Hits > before.Hits:
		return "hit"
	}
	return "none"
}

// interleave applies the given phase of every client's script, taking
// one op from each client in turn — the order in which a fair daemon
// serves two closed-loop clients.
func interleave(b *bench, phase func(*script) []op, apply func(*op) error) error {
	for i := 0; ; i++ {
		more := false
		for _, s := range b.clients {
			if ops := phase(s); i < len(ops) {
				more = true
				if err := apply(&ops[i]); err != nil {
					return fmt.Errorf("replay: op %d: %w", ops[i].id, err)
				}
			}
		}
		if !more {
			return nil
		}
	}
}

// stepper applies one op to one system and reports how long it took.
type stepper func(o *op) (time.Duration, error)

// lockstep runs the setup and timed phases through every stepper, op by
// op and in rotating order, so each op meets the same process state in
// every system; paired per op, their times compare without the drift
// that separate passes would add. It returns each stepper's time per op
// id, and calls after at the end of each phase.
func lockstep(b *bench, steppers []stepper, after func(phase int)) ([]map[int]time.Duration, error) {
	durs := make([]map[int]time.Duration, len(steppers))
	for i := range durs {
		durs[i] = map[int]time.Duration{}
	}
	for p, phase := range []func(*script) []op{
		func(s *script) []op { return s.setup },
		func(s *script) []op { return s.timed },
	} {
		err := interleave(b, phase, func(o *op) error {
			for k := range steppers {
				i := (o.id + k) % len(steppers)
				d, err := steppers[i](o)
				if err != nil {
					return err
				}
				durs[i][o.id] = d
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		after(p)
	}
	return durs, nil
}

func (r *replayer) step(ctx context.Context) stepper {
	return func(o *op) (time.Duration, error) {
		start := time.Now()
		err := r.apply(ctx, o)
		return time.Since(start), err
	}
}

func sum(m map[int]time.Duration) time.Duration {
	var t time.Duration
	for _, d := range m {
		t += d
	}
	return t
}

// runTraced is the traced run. After the reference, two passes replay
// the scripts with two systems each in lockstep, so at most two copies
// of the workload's state are alive at once. The first pass runs the
// replay with spans off against the same with spans on:
// trace.overhead_pct compares the two. The spans-on replay then runs the
// probe phase. The second pass runs a fresh spans-off replay against a
// fresh daemon handler fed the same requests through an in-memory
// recorder: server self time is the handler's time minus the replay's.
// Last, the bulk CSV loader runs on the registered facts.
func runTraced(ctx context.Context, out io.Writer, b *bench, spansDir string) (result, error) {
	_, allocs, err := expect(ctx, b, true)
	if err != nil {
		return result{}, err
	}
	off, on := newReplayer(b, newTracer(false)), newReplayer(b, newTracer(true))
	var stats [2]cqa.Stats
	durs, err := lockstep(b, []stepper{off.step(ctx), on.step(ctx)}, func(p int) { stats[p] = on.eng.Stats() })
	off.router.Drain()
	if err == nil {
		err = interleave(b, func(s *script) []op { return s.probe }, func(o *op) error { return on.apply(ctx, o) })
	}
	on.router.Drain()
	if err != nil {
		return result{}, err
	}
	offTotal, onTotal := sum(durs[0]), sum(durs[1])
	routerStats := on.router.Stats()
	tr, wrong := on.tr, off.misses+on.misses
	off, on = nil, nil // release the first pass's instances and memos
	runtime.GC()

	replay := newReplayer(b, newTracer(false))
	srv := server.New(server.Config{})
	h := srv.Handler()
	t := newTally()
	respBytes := 0
	serve := func(o *op) (time.Duration, error) {
		req := httptest.NewRequestWithContext(ctx, methodOf(o.kind), o.path, bytes.NewReader(o.body))
		rec := httptest.NewRecorder()
		s := tr.begin(spanHandler, 0, o.id)
		start := time.Now()
		h.ServeHTTP(rec, req)
		d := time.Since(start)
		tr.end(s)
		if o.decisions() > 0 {
			respBytes += rec.Body.Len()
		}
		t.check(b, o, reply{status: rec.Code, body: rec.Body.Bytes()})
		return d, nil
	}
	pair, err := lockstep(b, []stepper{replay.step(ctx), serve}, func(int) {})
	srv.Drain()
	replay.router.Drain()
	if err != nil {
		return result{}, err
	}
	wrong += replay.misses
	if err := loadCSV(b, tr); err != nil {
		return result{}, err
	}

	lm := layerMetrics(b, tr.spans, allocs)
	setM := func(name string, v float64, unit string) { lm[name] = metric{v, unit} }
	var self time.Duration
	decisions := 0
	b.allOps(func(o *op) {
		if hd, ok := pair[1][o.id]; ok && o.decisions() > 0 {
			self += hd - pair[0][o.id]
			decisions += o.decisions()
		}
	})
	setM("server.self_us_per_decision", float64(self.Nanoseconds())/1e3/float64(decisions), "us")
	setM("server.resp_bytes_per_decision", float64(respBytes)/float64(decisions), "B")
	setM("router.rejected", float64(routerStats.Rejected), "count")
	setM("router.shed", float64(routerStats.Shed), "count")
	setM("router.assignments", float64(len(routerStats.Assignments)), "count")
	setM("engine.plan_misses", float64(stats[1].Plans.Misses), "count")
	m := stats[1].Memo
	setM("memo.hits", float64(m.Hits), "count")
	setM("memo.repairs", float64(m.Repairs), "count")
	setM("memo.cold_builds", float64(m.ColdBuilds), "count")
	setM("memo.timed_cold_builds", float64(m.ColdBuilds-stats[0].Memo.ColdBuilds), "count")
	setM("memo.hit_ratio", float64(m.Hits)/float64(max(1, m.Hits+m.Misses)), "ratio")
	setM("par.solves", float64(stats[1].Parallel.Solves), "count")
	setM("par.shards", float64(stats[1].Parallel.Shards), "count")
	setM("trace.overhead_pct", 100*(onTotal.Seconds()-offTotal.Seconds())/offTotal.Seconds(), "%")

	fmt.Fprintf(out, "workload %s: replay %.3f s with spans, %.3f s without; handler %.3f s against %.3f s; %d spans\n",
		b.name, onTotal.Seconds(), offTotal.Seconds(), sum(pair[1]).Seconds(), sum(pair[0]).Seconds(), len(tr.spans))
	if rss, err := vmHWM("self"); err == nil {
		fmt.Fprintf(out, "traced run peak RSS %.1f MiB\n", rss)
	}
	printTally(out, "handler", t)
	a, f := t.totals()
	if wrong > 0 {
		fmt.Fprintf(out, "replay: %d decisions disagree with the reference\n", wrong)
	}
	if spansDir != "" {
		path := filepath.Join(spansDir, fmt.Sprintf("spans-%s.csv.gz", b.name))
		if err := writeSpans(path, tr.spans); err != nil {
			return result{}, err
		}
		fmt.Fprintf(out, "spans written to %s\n", path)
	}
	return result{Correct: wrong == 0 && t.wrong() == 0, Attempted: a, Failed: f + wrong, Metrics: lm}, nil
}

// loadCSV times instance.ReadCSVParallel on the facts of every set-up
// registration, rendered as CSV outside the span.
func loadCSV(b *bench, tr *tracer) error {
	for _, s := range b.clients {
		for i := range s.setup {
			o := &s.setup[i]
			if o.kind != opRegister {
				continue
			}
			db, err := cqa.ParseFacts(string(o.body))
			if err != nil {
				return err
			}
			var buf bytes.Buffer
			if err := db.WriteCSV(&buf); err != nil {
				return err
			}
			sp := tr.begin(spanCSV, 0, o.id)
			_, err = instance.ReadCSVParallel(&buf, 0)
			tr.end(sp)
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// layerMetrics derives the span-based per-layer metrics, with the
// reference's allocation counts.
func layerMetrics(b *bench, spans []span, allocs allocTable) map[string]metric {
	out := map[string]metric{}
	dur := func(s span) time.Duration { return s.end - s.start }
	facts := map[int]int{}
	b.allOps(func(o *op) { facts[o.id] = o.facts })
	var (
		waits, mutates        []time.Duration
		parse, intern, csv    time.Duration
		parseF, internF, csvF int
		lookups, compiles     []time.Duration
		decide                = map[string][]time.Duration{}
	)
	for _, s := range spans {
		d := dur(s)
		switch s.name {
		case spanDo, spanDoHeavy:
			// The task span is this span's only child.
			for _, c := range childrenOf(spans, s) {
				d -= dur(c)
			}
			waits = append(waits, d)
		case spanMutate:
			mutates = append(mutates, d)
		case spanParse:
			parse += d
			parseF += facts[s.req]
		case spanIntern:
			intern += d
			internF += facts[s.req]
		case spanCSV:
			csv += d
			csvF += facts[s.req]
		case spanCompile:
			if s.memo == "miss" {
				compiles = append(compiles, d)
			} else {
				lookups = append(lookups, d)
			}
		case spanDecide:
			key := s.tier + "." + s.memo
			decide[key] = append(decide[key], d)
		}
	}
	set := func(name string, v float64, unit string) { out[name] = metric{v, unit} }
	set("router.wait_us_p50", us(quantile(waits, 0.50)), "us")
	set("router.wait_us_p99", us(quantile(waits, 0.99)), "us")
	set("registry.mutate_us_p50", us(quantile(mutates, 0.50)), "us")
	set("registry.mutate_us_p99", us(quantile(mutates, 0.99)), "us")
	per1e4 := func(d time.Duration, n int) float64 {
		if n == 0 {
			return 0
		}
		return float64(d.Nanoseconds()) / 1e6 / (float64(n) / 1e4)
	}
	set("instance.parse_ms", per1e4(parse, parseF), "ms")
	set("instance.intern_ms", per1e4(intern, internF), "ms")
	set("instance.csv_load_ms", per1e4(csv, csvF), "ms")
	set("engine.lookup_ns", float64(mean(lookups).Nanoseconds()), "ns")
	set("engine.compile_us", us(mean(compiles)), "us")
	set("fo.decide_us", us(mean(decide["fo.none"])), "us")
	for _, tier := range []string{"nl", "fixpoint", "conp"} {
		set(tier+".hit_us", us(mean(decide[tier+".hit"])), "us")
		set(tier+".repair_us", us(mean(decide[tier+".repair"])), "us")
		set(tier+".cold_ms", us(mean(decide[tier+".cold"]))/1e3, "ms")
	}
	// Allocations are counted in the single-threaded reference, per tier
	// and memo outcome, and weighted here by the replay's outcome mix.
	for _, tier := range []string{"fo", "nl", "fixpoint", "conp"} {
		var objects, n float64
		for _, outcome := range []string{"none", "hit", "repair", "cold"} {
			key := tier + "." + outcome
			if a := allocs[key]; a[1] > 0 {
				k := float64(len(decide[key]))
				objects += k * float64(a[0]) / float64(a[1])
				n += k
			}
		}
		if n > 0 {
			set(tier+".allocs_per_decision", objects/n, "count")
		}
	}
	return out
}

// childrenOf returns the spans whose parent is s. Spans are appended in
// start order and a child starts after its parent, so the scan starts
// at the parent.
func childrenOf(spans []span, s span) []span {
	var out []span
	for _, c := range spans[s.id:] {
		if c.start > s.end {
			break
		}
		if c.parent == s.id {
			out = append(out, c)
		}
	}
	return out
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

func mean(xs []time.Duration) time.Duration {
	if len(xs) == 0 {
		return 0
	}
	var sum time.Duration
	for _, x := range xs {
		sum += x
	}
	return sum / time.Duration(len(xs))
}

// writeSpans writes the spans as gzipped CSV.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw := gzip.NewWriter(f)
	w := bufio.NewWriter(zw)
	fmt.Fprintln(w, "id,parent,req,name,start_ns,end_ns,tier,memo")
	for _, s := range spans {
		fmt.Fprintf(w, "%d,%d,%d,%s,%d,%d,%s,%s\n", s.id, s.parent, s.req, s.name, s.start.Nanoseconds(), s.end.Nanoseconds(), s.tier, s.memo)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
