package server

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cqa"
	"cqa/internal/faultinject"
)

// Config tunes a Server.
type Config struct {
	// Registry is the instance registry to serve; nil gets a fresh
	// registry over a default-configured engine.
	Registry *cqa.Registry
	// RouterWorkers is the resident fast-lane worker count (0: GOMAXPROCS).
	RouterWorkers int
	// QueueDepth bounds each fast-lane worker's task queue (0:
	// DefaultQueueDepth). A full queue rejects with 429, never blocks.
	QueueDepth int
	// HeavyWorkers sizes the heavy lane, the bounded pool coNP/SAT-bound
	// requests are routed onto (0: max(1, RouterWorkers/4)).
	HeavyWorkers int
	// HeavyQueueDepth bounds the heavy lane's shared queue (0: QueueDepth).
	HeavyQueueDepth int
	// Window bounds how many batch queries one connection may have in
	// flight — read but unanswered — at a time (0: DefaultWindow). A
	// streamed batch is read, evaluated, and answered in Window-sized
	// chunks, so per-connection memory stays constant and a slow
	// consumer backpressures its own producer instead of the daemon.
	Window int
	// MaxLine bounds a request line's length in bytes (0: DefaultMaxLine).
	MaxLine int
	// DefaultTimeout is the per-request deadline applied when a request
	// carries none of its own (0: no default). Clients override it per
	// request with the CQA-Timeout-Ms header (REST, and the per-chunk
	// budget of a batch stream) or a timeout_ms field on an NDJSON
	// batch line. The deadline covers queueing: a request that expires
	// while queued is answered with 504 without being evaluated.
	DefaultTimeout time.Duration
	// MemSoftLimit is the soft heap watermark in bytes (0: disabled).
	// While HeapAlloc exceeds it, the engine's tier memo budgets are
	// scaled down to DegradedMemoScale — decisions degrade to cold
	// builds instead of the process growing toward an OOM kill — and
	// restored once the heap falls below 3/4 of the limit.
	MemSoftLimit int64
	// MemCheckInterval is the watermark sampling period (0:
	// DefaultMemCheckInterval).
	MemCheckInterval time.Duration
}

// DefaultWindow is the per-connection in-flight query bound.
const DefaultWindow = 256

// DefaultMaxLine bounds request lines (facts bodies are not lines and
// are bounded by http.MaxBytesReader instead).
const DefaultMaxLine = 1 << 20

// maxBodyBytes bounds non-streaming request bodies (register, mutate).
const maxBodyBytes = 64 << 20

// TimeoutHeader is the REST per-request deadline header: the number of
// milliseconds the request may spend queued plus evaluating. "0"
// disables the server's default timeout for this request.
const TimeoutHeader = "CQA-Timeout-Ms"

// DegradedMemoScale is the memo-budget scale applied while the heap is
// over the soft watermark.
const DegradedMemoScale = 0.25

// DefaultMemCheckInterval is the watermark sampling period when Config
// leaves it zero.
const DefaultMemCheckInterval = time.Second

// Server is the HTTP front end: a Registry for state, a Router for
// residency and admission. Handlers never evaluate on the connection
// goroutine — every decision and every mutation is submitted to a
// router lane. Warm PTIME/NL decisions ride the sticky fast lane, so
// all work on one instance serializes in arrival order on one
// goroutine, memo-warm; coNP/SAT-bound decisions (the tier is known at
// compile time) are routed onto the bounded heavy lane so a pile-up of
// hard decisions cannot stall warm traffic. Full lanes reject with 429
// + Retry-After instead of blocking the connection.
//
// Endpoints:
//
//	GET    /instances                   list registered instances
//	POST   /instances/{name}            register; body = fact list ("R(0,1) R(1,2) ...")
//	GET    /instances/{name}            instance info
//	DELETE /instances/{name}            drop
//	POST   /instances/{name}/mutate     body = {"add":["R(0,1)",...],"remove":[...]}
//	GET    /instances/{name}/query?q=W  one decision, JSON
//	POST   /instances/{name}/batch      NDJSON/plain query stream in, NDJSON results out
//	GET    /metrics                     unified stats tree, JSON
//	GET    /healthz                     liveness: 200 while the process serves
//	GET    /readyz                      readiness: 200 until drain begins, then 503
type Server struct {
	reg            *cqa.Registry
	router         *Router
	window         int
	maxLine        int
	defaultTimeout time.Duration
	mux            *http.ServeMux

	// ready flips false when Drain begins, turning /readyz into 503 so
	// load balancers stop routing before the listener closes.
	ready atomic.Bool
	// handlerPanics counts panics recovered by the handler middleware —
	// panics on the connection goroutine itself (outside the router
	// lanes), answered with a 500.
	handlerPanics atomic.Uint64

	memStop chan struct{}
	memOnce sync.Once
}

// New builds a Server and starts its resident workers (and, when
// Config.MemSoftLimit is set, the heap watermark watcher). Call Drain
// to stop them.
func New(cfg Config) *Server {
	if cfg.Registry == nil {
		cfg.Registry = cqa.NewRegistry(nil)
	}
	if cfg.Window <= 0 {
		cfg.Window = DefaultWindow
	}
	if cfg.MaxLine <= 0 {
		cfg.MaxLine = DefaultMaxLine
	}
	if cfg.MemCheckInterval <= 0 {
		cfg.MemCheckInterval = DefaultMemCheckInterval
	}
	s := &Server{
		reg:            cfg.Registry,
		router:         NewRouter(cfg.RouterWorkers, cfg.QueueDepth, cfg.HeavyWorkers, cfg.HeavyQueueDepth),
		window:         cfg.Window,
		maxLine:        cfg.MaxLine,
		defaultTimeout: cfg.DefaultTimeout,
		mux:            http.NewServeMux(),
		memStop:        make(chan struct{}),
	}
	s.ready.Store(true)
	s.mux.HandleFunc("GET /instances", s.handleList)
	s.mux.HandleFunc("POST /instances/{name}", s.handleRegister)
	s.mux.HandleFunc("GET /instances/{name}", s.handleInfo)
	s.mux.HandleFunc("DELETE /instances/{name}", s.handleDrop)
	s.mux.HandleFunc("POST /instances/{name}/mutate", s.handleMutate)
	s.mux.HandleFunc("GET /instances/{name}/query", s.handleQuery)
	s.mux.HandleFunc("POST /instances/{name}/batch", s.handleBatch)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	if cfg.MemSoftLimit > 0 {
		go s.watchMemory(cfg.MemSoftLimit, cfg.MemCheckInterval)
	}
	return s
}

// Handler returns the HTTP handler to mount. It wraps the mux in a
// recover() boundary: a panic on the connection goroutine itself —
// e.g. inside an info snapshot, outside the router lanes' own
// recovery — is answered with a 500 instead of silently dropping the
// connection, and counted in Metrics.HandlerPanics.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if p := recover(); p != nil {
				s.handlerPanics.Add(1)
				// Best effort: if the response already started this
				// write fails, which is all a half-written stream can do.
				httpError(w, http.StatusInternalServerError, fmt.Errorf("server: handler panicked: %v", p))
			}
		}()
		s.mux.ServeHTTP(w, r)
	})
}

// Registry returns the served registry.
func (s *Server) Registry() *cqa.Registry { return s.reg }

// Drain gracefully stops the daemon's background work: /readyz flips
// to 503 first (load balancers stop routing), the watermark watcher
// stops, then the router stops accepting (new submissions fail with
// ErrDraining, 503 to clients) and queued work completes. Call after
// http.Server.Shutdown has stopped accepting connections.
func (s *Server) Drain() {
	s.ready.Store(false)
	s.memOnce.Do(func() { close(s.memStop) })
	s.router.Drain()
}

// InFlight returns the number of requests currently queued on the
// router lanes — what an abandoned drain leaves behind.
func (s *Server) InFlight() int { return s.router.InFlight() }

// watchMemory samples the heap against the soft watermark and scales
// the engine's memo budgets: over the limit every tier memo shrinks to
// DegradedMemoScale of its default (re-applied each tick so lazily
// compiled plans are covered), and once the heap falls below 3/4 of
// the limit the defaults are restored.
func (s *Server) watchMemory(limit int64, every time.Duration) {
	ticker := time.NewTicker(every)
	defer ticker.Stop()
	degraded := false
	var ms runtime.MemStats
	for {
		select {
		case <-s.memStop:
			return
		case <-ticker.C:
			runtime.ReadMemStats(&ms)
			heap := int64(ms.HeapAlloc)
			switch {
			case heap > limit:
				degraded = true
				s.reg.Engine().SetMemoScale(DegradedMemoScale)
			case degraded && heap < limit-limit/4:
				degraded = false
				s.reg.Engine().SetMemoScale(1)
			}
		}
	}
}

// heavyQuery reports whether q dispatches to the SAT tier — the
// admission predicate for the heavy lane. Compilation is cached, so on
// the serving steady state this is a plan-cache hit.
func (s *Server) heavyQuery(q cqa.Query) bool {
	return s.reg.Engine().Compile(q).Method() == cqa.MethodSAT
}

// reqTimeout resolves a request's deadline budget: the CQA-Timeout-Ms
// header if present ("0" disables), else the server default (0: none).
func (s *Server) reqTimeout(r *http.Request) (time.Duration, error) {
	h := r.Header.Get(TimeoutHeader)
	if h == "" {
		return s.defaultTimeout, nil
	}
	ms, err := strconv.ParseInt(h, 10, 64)
	if err != nil || ms < 0 {
		return 0, fmt.Errorf("server: invalid %s header %q", TimeoutHeader, h)
	}
	return time.Duration(ms) * time.Millisecond, nil
}

// reqContext derives the request's evaluation context from its
// deadline budget.
func (s *Server) reqContext(r *http.Request) (context.Context, context.CancelFunc, error) {
	d, err := s.reqTimeout(r)
	if err != nil {
		return nil, nil, err
	}
	if d <= 0 {
		return r.Context(), func() {}, nil
	}
	ctx, cancel := context.WithTimeout(r.Context(), d)
	return ctx, cancel, nil
}

// httpError writes a JSON error body with the given status. A 429
// carries Retry-After so well-behaved clients back off instead of
// hammering a saturated lane.
func httpError(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	if status == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", "1")
	}
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

// errStatus maps a registry/router error to an HTTP status.
func errStatus(err error) int {
	switch {
	case errors.Is(err, cqa.ErrInstanceNotFound):
		return http.StatusNotFound
	case errors.Is(err, cqa.ErrInstanceExists):
		return http.StatusConflict
	case errors.Is(err, ErrOverloaded):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrDraining):
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrWorkerPanic), errors.Is(err, cqa.ErrPanic):
		return http.StatusInternalServerError
	case errors.Is(err, context.DeadlineExceeded):
		// Includes ErrExpiredInQueue, which wraps it.
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return 499 // client closed request
	default:
		return http.StatusBadRequest
	}
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, map[string]string{"status": "ok"})
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if !s.ready.Load() {
		httpError(w, http.StatusServiceUnavailable, ErrDraining)
		return
	}
	writeJSON(w, map[string]string{"status": "ready"})
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.reg.Infos())
}

func (s *Server) handleRegister(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	db, err := cqa.ParseFacts(string(body))
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	if err := s.reg.Register(name, db); err != nil {
		httpError(w, errStatus(err), err)
		return
	}
	// Touch the router so the assignment exists (and is reported by
	// /metrics) from registration on, not first query.
	s.router.WorkerFor(name)
	info, err := s.reg.Info(name)
	if err != nil {
		httpError(w, errStatus(err), err)
		return
	}
	w.WriteHeader(http.StatusCreated)
	writeJSON(w, info)
}

func (s *Server) handleInfo(w http.ResponseWriter, r *http.Request) {
	info, err := s.reg.Info(r.PathValue("name"))
	if err != nil {
		httpError(w, errStatus(err), err)
		return
	}
	writeJSON(w, info)
}

func (s *Server) handleDrop(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if !s.reg.Drop(name) {
		httpError(w, http.StatusNotFound, fmt.Errorf("%w: %q", cqa.ErrInstanceNotFound, name))
		return
	}
	s.router.Forget(name)
	writeJSON(w, map[string]string{"dropped": name})
}

// route runs fn for the named instance on the heavy lane or on the
// instance's sticky fast-lane worker. The router assigns a worker to a
// name on first touch and only a drop releases it, so a name that is
// not registered is answered ErrInstanceNotFound here, before it can
// claim an assignment or a queue slot.
func (s *Server) route(ctx context.Context, name string, heavy bool, fn func()) error {
	if !s.reg.Has(name) {
		return fmt.Errorf("%w: %q", cqa.ErrInstanceNotFound, name)
	}
	if heavy {
		return s.router.DoHeavy(ctx, fn)
	}
	return s.router.Do(ctx, name, fn)
}

// mutateRequest is the mutate endpoint's body: fact tokens to add and
// remove, applied atomically as one snapshot step.
type mutateRequest struct {
	Add    []string `json:"add"`
	Remove []string `json:"remove"`
}

func parseFactList(tokens []string) ([]cqa.Fact, error) {
	facts := make([]cqa.Fact, 0, len(tokens))
	for _, tok := range tokens {
		f, err := cqa.ParseFact(strings.TrimSpace(tok))
		if err != nil {
			return nil, err
		}
		facts = append(facts, f)
	}
	return facts, nil
}

func (s *Server) handleMutate(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	var req mutateRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	var mut cqa.Mutation
	var err error
	if mut.Add, err = parseFactList(req.Add); err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	if mut.Remove, err = parseFactList(req.Remove); err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	ctx, cancel, err := s.reqContext(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	defer cancel()
	var info cqa.InstanceInfo
	var mutErr error
	// Mutations always ride the fast lane: the sticky worker is what
	// puts the mutation and the lineage repair of its own memo entry on
	// the same goroutine.
	if doErr := s.route(ctx, name, false, func() {
		info, mutErr = s.reg.Mutate(name, mut)
	}); doErr != nil {
		httpError(w, errStatus(doErr), doErr)
		return
	}
	if mutErr != nil {
		httpError(w, errStatus(mutErr), mutErr)
		return
	}
	writeJSON(w, info)
}

// queryResponse is one decision on the wire (query and batch).
type queryResponse struct {
	Index   int    `json:"index,omitempty"`
	Query   string `json:"query"`
	Certain *bool  `json:"certain,omitempty"`
	Class   string `json:"class,omitempty"`
	Method  string `json:"method,omitempty"`
	Error   string `json:"error,omitempty"`
}

func responseFor(q string, res cqa.Result, err error) queryResponse {
	resp := queryResponse{Query: q}
	if err == nil {
		err = res.Err
	}
	if err != nil {
		resp.Error = err.Error()
		return resp
	}
	certain := res.Certain
	resp.Certain = &certain
	resp.Class = res.Class.String()
	resp.Method = string(res.Method)
	return resp
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	// The response echoes the query as sent: the display form of the
	// parsed word is not injective ("A b" and "Ab" both render "Ab").
	raw := r.URL.Query().Get("q")
	q, err := cqa.ParseQuery(raw)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	ctx, cancel, err := s.reqContext(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	defer cancel()
	var res cqa.Result
	var qErr error
	fn := func() {
		res, qErr = s.reg.Query(ctx, name, q, cqa.Options{})
	}
	if doErr := s.route(ctx, name, s.heavyQuery(q), fn); doErr != nil {
		httpError(w, errStatus(doErr), doErr)
		return
	}
	if qErr != nil {
		httpError(w, errStatus(qErr), qErr)
		return
	}
	writeJSON(w, responseFor(raw, res, nil))
}

// batchLine is one NDJSON request line of a batch stream.
type batchLine struct {
	Query string `json:"query"`
	// TimeoutMs is this line's deadline budget in milliseconds, counted
	// from when the line is read: the decision must be answered within
	// it whether the time goes to queueing or evaluating. 0 disables the
	// deadline for this line; absent inherits the request budget (the
	// CQA-Timeout-Ms header, else the server default).
	TimeoutMs *int64 `json:"timeout_ms"`
}

// handleBatch streams decisions: the request body is one query per
// line — either a bare word ("RRX") or NDJSON ({"query":"RRX"}) — and
// the response is NDJSON, one result object per request line, in
// order. The stream is processed in Window-sized chunks; within a
// chunk the lines are partitioned by compiled tier — warm PTIME/NL
// decisions go to the instance's resident fast-lane worker (memo-warm
// across chunks and connections), coNP/SAT-bound lines to the heavy
// lane — and the two sublists evaluate concurrently, merging back in
// input order. A full lane rejects its sublist with per-line
// "overloaded" errors while the other lane's lines still answer; a
// line whose deadline expires while its chunk is queued gets a
// per-line deadline error without being evaluated.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	timeout, err := s.reqTimeout(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	// The batch stream answers while the request body is still being
	// read (that is the backpressure: at most Window unanswered lines).
	// HTTP/1.x is half-duplex by default — the first response write
	// closes the request body — so opt in to full duplex; where that is
	// unsupported the error is ignored and short streams (under one
	// window) still work.
	http.NewResponseController(w).EnableFullDuplex()
	w.Header().Set("Content-Type", "application/x-ndjson")
	out := bufio.NewWriter(w)
	defer out.Flush()
	enc := json.NewEncoder(out)
	flusher, _ := w.(http.Flusher)

	// Batch lines are short, so the scanner starts at bufio's 4 KiB
	// default and grows toward maxLine only for a longer line: a large
	// buffer allocated up front for every request would be most of what
	// a served decision allocates.
	sc := bufio.NewScanner(r.Body)
	sc.Buffer(nil, s.maxLine)

	index := 0
	var pending []queryResponse // one slot per request line of the chunk
	var items []cqa.BatchItem   // parsed queries + deadlines; slot i maps via qIdx
	var qIdx []int

	flush := func() error {
		if len(items) > 0 {
			cctx := r.Context()
			cancel := context.CancelFunc(func() {})
			if timeout > 0 {
				// The request budget bounds each chunk submission
				// (queueing + evaluation); per-line deadlines refine it.
				cctx, cancel = context.WithTimeout(r.Context(), timeout)
			}
			results := make([]cqa.Result, len(items))
			errs := make([]error, len(items))
			run := func(idxs []int, heavy bool) {
				if len(idxs) == 0 {
					return
				}
				sub := make([]cqa.BatchItem, len(idxs))
				for j, i := range idxs {
					sub[j] = items[i]
				}
				var res []cqa.Result
				var batchErr error
				fn := func() {
					res, batchErr = s.reg.QueryBatchItems(cctx, name, sub, cqa.Options{})
				}
				doErr := s.route(cctx, name, heavy, fn)
				for j, i := range idxs {
					switch {
					case doErr != nil:
						errs[i] = doErr
					case j < len(res):
						results[i] = res[j]
					case batchErr != nil:
						errs[i] = batchErr
					default:
						errs[i] = errors.New("server: decision missing")
					}
				}
			}
			var fastIdx, heavyIdx []int
			for i, it := range items {
				if s.heavyQuery(it.Query) {
					heavyIdx = append(heavyIdx, i)
				} else {
					fastIdx = append(fastIdx, i)
				}
			}
			if len(fastIdx) > 0 && len(heavyIdx) > 0 {
				var wg sync.WaitGroup
				wg.Add(1)
				go func() {
					defer wg.Done()
					run(heavyIdx, true)
				}()
				run(fastIdx, false)
				wg.Wait()
			} else {
				run(fastIdx, false)
				run(heavyIdx, true)
			}
			cancel()
			for i := range pending {
				k := qIdx[i]
				if k < 0 {
					continue // parse error already recorded
				}
				idx := pending[i].Index
				if errs[k] != nil {
					pending[i].Error = errs[k].Error()
				} else {
					pending[i] = responseFor(pending[i].Query, results[k], nil)
					pending[i].Index = idx
				}
			}
		}
		// Chaos failpoint: an injected fault here models the client
		// connection dying mid-response; the stream aborts like any
		// failed write.
		if err := faultinject.Fire(faultinject.ServerWrite); err != nil {
			return err
		}
		for _, resp := range pending {
			if err := enc.Encode(resp); err != nil {
				return err
			}
		}
		pending, items, qIdx = pending[:0], items[:0], qIdx[:0]
		if err := out.Flush(); err != nil {
			return err
		}
		if flusher != nil {
			flusher.Flush()
		}
		return nil
	}

	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		index++
		qs := line
		d := timeout
		if strings.HasPrefix(line, "{") {
			var bl batchLine
			if err := json.Unmarshal([]byte(line), &bl); err != nil {
				pending = append(pending, queryResponse{Index: index, Error: err.Error()})
				qIdx = append(qIdx, -1)
				if len(pending) >= s.window {
					if flush() != nil {
						return
					}
				}
				continue
			}
			qs = bl.Query
			if bl.TimeoutMs != nil {
				d = time.Duration(*bl.TimeoutMs) * time.Millisecond
			}
		}
		resp := queryResponse{Index: index, Query: qs}
		if q, err := cqa.ParseQuery(qs); err != nil {
			resp.Error = err.Error()
			qIdx = append(qIdx, -1)
		} else {
			it := cqa.BatchItem{Query: q}
			if d > 0 {
				// The line's deadline clock starts when the line is read,
				// so time spent buffered in the chunk or queued on a lane
				// counts against it.
				it.Deadline = time.Now().Add(d)
			}
			qIdx = append(qIdx, len(items))
			items = append(items, it)
		}
		pending = append(pending, resp)
		if len(pending) >= s.window {
			if flush() != nil {
				return
			}
		}
	}
	if err := sc.Err(); err != nil {
		pending = append(pending, queryResponse{Error: err.Error()})
		qIdx = append(qIdx, -1)
	}
	flush()
}
