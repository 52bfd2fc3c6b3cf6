// Command cqa is the command-line front end of the library: classify
// path queries, decide CERTAINTY(q) on instances loaded from CSV or fact
// lists, inspect compiled plans, evaluate request batches concurrently,
// print consistent first-order rewritings, rewinding languages, NFA(q)
// diagrams, and Figure 5 fixpoint traces.
//
// Usage:
//
//	cqa classify <query>...
//	cqa solve -q <query> (-db <file.csv> | -facts "R(a,b) ...") [-method M] [-cex]
//	cqa plan -q <query>
//	cqa batch [-file reqs.txt] [-workers N] [-format lines|ndjson|csv]
//	          [-max-line BYTES] [-stats]
//	cqa serve [-addr HOST:PORT] [-router-workers N] [-queue-depth N] [-window N]
//	cqa rewrite -q <query>
//	cqa language -q <query> [-max N]
//	cqa nfa -q <query>
//	cqa trace -q <query> (-db <file.csv> | -facts "...")
//	cqa count (-db <file.csv> | -facts "...")
//
// All certainty decisions run through the engine (cqa.Engine): plans
// are compiled once per query word and cached, and batch requests are
// evaluated on a worker pool.
package main

import (
	"bufio"
	"context"
	"encoding/csv"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"

	"cqa"
	"cqa/internal/automata"
	"cqa/internal/fixpoint"
	"cqa/internal/instance"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "classify":
		err = cmdClassify(os.Args[2:])
	case "solve":
		err = cmdSolve(os.Args[2:])
	case "plan":
		err = cmdPlan(os.Args[2:])
	case "batch":
		err = cmdBatch(os.Args[2:])
	case "serve":
		err = cmdServe(os.Args[2:])
	case "rewrite":
		err = cmdRewrite(os.Args[2:])
	case "language":
		err = cmdLanguage(os.Args[2:])
	case "nfa":
		err = cmdNFA(os.Args[2:])
	case "trace":
		err = cmdTrace(os.Args[2:])
	case "count":
		err = cmdCount(os.Args[2:])
	case "help", "-h", "--help":
		usage()
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "cqa:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  cqa classify <query>...          complexity class of CERTAINTY(q) with witnesses
  cqa solve -q Q [-db F|-facts S]  decide CERTAINTY(q) on an instance
  cqa plan -q Q                    compiled execution plan for q
  cqa batch [-file F] [-workers N] [-format lines|ndjson|csv]
            [-max-line BYTES]
            [-stats]               decide a request batch; ndjson reads
                                   {"query":..., "facts":[...]} lines and
                                   streams one-line-JSON results; csv reads
                                   id,query,rel,key,val fact rows grouped
                                   by request id
  cqa serve [-addr A] [-router-workers N] [-queue-depth N] [-window N]
                                   resident HTTP/NDJSON daemon over named
                                   instances (see docs/serving.md)
  cqa rewrite -q Q                 consistent FO rewriting (FO class only)
  cqa language -q Q [-max N]       rewinding closure L↬(q) up to length N
  cqa nfa -q Q                     NFA(q) in Graphviz DOT
  cqa trace -q Q [-db F|-facts S]  Figure 5 fixpoint iteration trace
  cqa count [-db F|-facts S]       number of repairs`)
}

func loadInstance(dbPath, facts string) (*instance.Instance, error) {
	switch {
	case dbPath != "" && facts != "":
		return nil, fmt.Errorf("use either -db or -facts, not both")
	case dbPath != "":
		f, err := os.Open(dbPath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		// The parallel loader degrades to ReadCSV on one core and keeps
		// the same format and error contract, so every -db path gets the
		// pipelined ingest for free.
		return instance.ReadCSVParallel(f, runtime.GOMAXPROCS(0))
	case facts != "":
		return instance.ParseFacts(facts)
	default:
		return nil, fmt.Errorf("an instance is required: -db file.csv or -facts \"R(a,b) ...\"")
	}
}

func cmdClassify(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("at least one query is required")
	}
	for _, qs := range args {
		q, err := cqa.ParseQuery(qs)
		if err != nil {
			return err
		}
		fmt.Println(cqa.Explain(q))
	}
	return nil
}

func cmdSolve(args []string) error {
	fs := flag.NewFlagSet("solve", flag.ExitOnError)
	qs := fs.String("q", "", "path query word, e.g. RRX")
	dbPath := fs.String("db", "", "instance CSV file (rel,key,val rows)")
	facts := fs.String("facts", "", "inline fact list, e.g. \"R(a,b) R(a,c)\"")
	method := fs.String("method", "", "force a tier: fo-rewriting, nl-loop, ptime-fixpoint, conp-sat, exhaustive")
	cex := fs.Bool("cex", false, "print a counterexample repair on no-instances")
	fs.Parse(args)
	q, err := cqa.ParseQuery(*qs)
	if err != nil {
		return err
	}
	db, err := loadInstance(*dbPath, *facts)
	if err != nil {
		return err
	}
	res, err := cqa.CertainOpt(q, db, cqa.Options{
		Force:              cqa.Method(*method),
		WantCounterexample: *cex,
	})
	if err != nil {
		return err
	}
	fmt.Printf("query    : %s  (%v)\n", strings.TrimSpace(*qs), res.Class)
	fmt.Printf("method   : %s\n", res.Method)
	fmt.Printf("certain  : %v\n", res.Certain)
	if res.Witness != "" {
		fmt.Printf("witness  : every repair has an accepted path starting at %s\n", res.Witness)
	}
	if res.Note != "" {
		fmt.Printf("note     : %s\n", res.Note)
	}
	if *cex && res.Counterexample != nil {
		fmt.Printf("repair falsifying q: %s\n", res.Counterexample)
	}
	return nil
}

func cmdPlan(args []string) error {
	fs := flag.NewFlagSet("plan", flag.ExitOnError)
	qs := fs.String("q", "", "path query word, e.g. RRX")
	fs.Parse(args)
	q, err := cqa.ParseQuery(*qs)
	if err != nil {
		return err
	}
	p := cqa.CompilePlan(q)
	fmt.Printf("query  : %s\n", strings.TrimSpace(*qs))
	fmt.Printf("class  : %v\n", p.Class())
	fmt.Printf("method : %s\n", p.Method())
	if s, ok := p.Rewriting(); ok {
		fmt.Printf("fo     : %s\n", s)
	}
	if s, ok := p.Decomposition(); ok {
		fmt.Printf("nl     : %s\n", s)
	}
	return nil
}

// cmdBatch decides request batches concurrently on one engine, so
// repeated query words share a compiled plan and the sharded scheduler
// keeps same-instance requests on one worker. Three request formats:
//
//   - "lines" (default): one "QUERY ; FACTS" per line, e.g.
//     "RRX ; R(0,1) R(1,2) X(2,3)", with aligned text output, decided
//     and printed in bounded chunks.
//   - "ndjson": one JSON object per line,
//     {"query": "RRX", "facts": ["R(0,1)", "R(1,2)", "X(2,3)"]},
//     answered with streaming one-line-JSON results on stdout; a
//     malformed line (including one over -max-line) gets a per-line
//     error object instead of aborting the stream; the summary goes to
//     stderr to keep stdout valid NDJSON.
//   - "csv": one fact per row, "id,query,rel,key,val", rows for one
//     request consecutive (the rel,key,val columns round-trip the
//     instance CSV loader, so `cqa count -db` files paste in behind an
//     id,query prefix); answered with one CSV row per request,
//     "id,query,certain,class,method,error", on stdout and the summary
//     on stderr.
//
// All three formats evaluate and emit in chunks of batchChunk requests,
// so arbitrarily long request streams run in constant memory and output
// starts before the whole input is read.
func cmdBatch(args []string) error {
	fs := flag.NewFlagSet("batch", flag.ExitOnError)
	file := fs.String("file", "", "request file (default: stdin)")
	workers := fs.Int("workers", 0, "worker-pool size (default: GOMAXPROCS)")
	format := fs.String("format", "lines", `request format: "lines", "ndjson" or "csv"`)
	maxLine := fs.Int("max-line", defaultMaxLine, "maximum request line length in bytes")
	showStats := fs.Bool("stats", false, "print the engine's full Stats snapshot (plan cache, memo hits/repairs/cold builds) after the summary")
	fs.Parse(args)
	if *maxLine <= 0 {
		return fmt.Errorf("-max-line must be positive, got %d", *maxLine)
	}

	var r io.Reader = os.Stdin
	if *file != "" {
		f, err := os.Open(*file)
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}
	eng := cqa.NewEngine(cqa.EngineConfig{Workers: *workers})
	lr := newLineReader(r, *maxLine)

	run := batchLines
	summaryTo := io.Writer(os.Stdout)
	switch *format {
	case "lines":
	case "ndjson":
		run, summaryTo = batchNDJSON, os.Stderr
	case "csv":
		run, summaryTo = batchCSV, os.Stderr
	default:
		return fmt.Errorf("unknown -format %q (want lines, ndjson or csv)", *format)
	}
	total, err := run(eng, lr, os.Stdout)
	if err != nil {
		return err
	}
	fmt.Fprintf(summaryTo, "# %d requests\n", total)
	if *showStats {
		fmt.Fprintln(summaryTo, statsComment(eng.Stats()))
	}
	return nil
}

// statsComment renders the engine's unified Stats snapshot as
// "# "-prefixed comment lines, one per subtree — the same tree the
// serve daemon's /metrics endpoint serializes.
func statsComment(s cqa.Stats) string {
	return "# " + strings.ReplaceAll(s.String(), "\n", "\n# ")
}

// defaultMaxLine is the -max-line default: generous enough for large
// inline fact lists, small enough to catch a runaway unterminated line.
const defaultMaxLine = 8 << 20

// lineReader yields lines of at most max bytes. Unlike bufio.Scanner —
// whose ErrTooLong poisons the whole stream — an oversized line is
// consumed to its terminator and reported via the tooLong flag, and
// reading continues at the next line, so NDJSON mode can answer it with
// a per-line error instead of aborting the batch.
type lineReader struct {
	r    *bufio.Reader
	max  int
	line int // line number of the most recently returned line
}

func newLineReader(r io.Reader, max int) *lineReader {
	return &lineReader{r: bufio.NewReader(r), max: max}
}

// next returns the next line without its terminator. Only line content
// counts against max — the '\n' does not, so a line of exactly max
// bytes passes whether or not it is newline-terminated. It returns
// io.EOF only on a clean end of input with no pending line.
func (lr *lineReader) next() (string, bool, error) {
	var buf []byte
	tooLong := false
	for {
		chunk, err := lr.r.ReadSlice('\n')
		data := chunk
		if len(data) > 0 && data[len(data)-1] == '\n' {
			data = data[:len(data)-1]
		}
		if len(data) > 0 && !tooLong {
			if len(buf)+len(data) > lr.max {
				tooLong = true
				buf = nil
			} else {
				buf = append(buf, data...)
			}
		}
		switch err {
		case nil, io.EOF:
			if err == io.EOF && len(chunk) == 0 && len(buf) == 0 && !tooLong {
				return "", false, io.EOF
			}
			lr.line++
			return string(buf), tooLong, nil
		case bufio.ErrBufferFull:
			continue
		default:
			return "", false, err
		}
	}
}

// errLineTooLong renders the shared over-length diagnostic.
func (lr *lineReader) errLineTooLong() error {
	return fmt.Errorf("line %d: request line longer than %d bytes (raise -max-line)", lr.line, lr.max)
}

// batchLines evaluates and prints in batchChunk-sized chunks, so
// "-format lines" streams in constant memory like the NDJSON path
// instead of buffering the whole request file. It returns the number of
// requests answered; cmdBatch prints the summary.
func batchLines(eng *cqa.Engine, lr *lineReader, w io.Writer) (int, error) {
	out := bufio.NewWriter(w)
	defer out.Flush()
	total := 0
	var reqs []cqa.Request
	var nums []int
	// texts holds each query as written: Query.String() renders "A b"
	// and "Ab" alike.
	var texts []string
	flush := func() error {
		for j, res := range eng.CertainBatch(context.Background(), reqs) {
			if res.Err != nil {
				fmt.Fprintf(out, "%-4d %-12s error: %v\n", nums[j], texts[j], res.Err)
				continue
			}
			fmt.Fprintf(out, "%-4d %-12s certain=%-5v class=%v method=%s\n",
				nums[j], texts[j], res.Certain, res.Class, res.Method)
		}
		reqs, nums, texts = reqs[:0], nums[:0], texts[:0]
		return out.Flush()
	}
	for {
		raw, tooLong, err := lr.next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return total, err
		}
		if tooLong {
			return total, lr.errLineTooLong()
		}
		line := strings.TrimSpace(raw)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		qpart, fpart, ok := strings.Cut(line, ";")
		if !ok {
			return total, fmt.Errorf("line %d: want \"QUERY ; FACTS\", got %q", lr.line, line)
		}
		qtext := strings.TrimSpace(qpart)
		q, err := cqa.ParseQuery(qtext)
		if err != nil {
			return total, fmt.Errorf("line %d: %w", lr.line, err)
		}
		db, err := instance.ParseFacts(strings.TrimSpace(fpart))
		if err != nil {
			return total, fmt.Errorf("line %d: %w", lr.line, err)
		}
		total++
		reqs = append(reqs, cqa.Request{Query: q, DB: db})
		nums = append(nums, total)
		texts = append(texts, qtext)
		if len(reqs) >= batchChunk {
			if err := flush(); err != nil {
				return total, err
			}
		}
	}
	if err := flush(); err != nil {
		return total, err
	}
	return total, nil
}

// batchRequest is one NDJSON request line.
type batchRequest struct {
	Query string   `json:"query"`
	Facts []string `json:"facts"`
}

// batchResponse is one NDJSON result line. Exactly one of Error or the
// decision fields is meaningful.
type batchResponse struct {
	Index   int    `json:"index"`
	Query   string `json:"query"`
	Certain *bool  `json:"certain,omitempty"`
	Class   string `json:"class,omitempty"`
	Method  string `json:"method,omitempty"`
	Error   string `json:"error,omitempty"`
}

// batchChunk bounds how many NDJSON requests are in flight at once, so
// arbitrarily long request streams run in constant memory and results
// stream out as chunks complete.
const batchChunk = 256

func batchNDJSON(eng *cqa.Engine, lr *lineReader, w io.Writer) (int, error) {
	out := bufio.NewWriter(w)
	defer out.Flush()
	enc := json.NewEncoder(out)

	total := 0
	// A chunk holds responses in input order; reqIdx >= 0 marks a slot
	// to be filled from the concurrent batch evaluation, -1 a request
	// that already failed to parse. Every parse-side error — JSON
	// decode, query, facts, over-length line — carries its "line %d:"
	// context, so a failing line of a huge stream can be found.
	type slot struct {
		resp   batchResponse
		reqIdx int
	}
	var slots []slot
	var reqs []cqa.Request

	flush := func() error {
		results := eng.CertainBatch(context.Background(), reqs)
		for _, sl := range slots {
			resp := sl.resp
			if sl.reqIdx >= 0 {
				res := results[sl.reqIdx]
				if res.Err != nil {
					resp.Error = res.Err.Error()
				} else {
					certain := res.Certain
					resp.Certain = &certain
					resp.Class = res.Class.String()
					resp.Method = string(res.Method)
				}
			}
			if err := enc.Encode(resp); err != nil {
				return err
			}
		}
		slots, reqs = slots[:0], reqs[:0]
		return out.Flush()
	}

	for {
		raw, tooLong, err := lr.next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return total, err
		}
		if tooLong {
			total++
			slots = append(slots, slot{reqIdx: -1, resp: batchResponse{
				Index: total, Error: lr.errLineTooLong().Error()}})
			if len(slots) >= batchChunk {
				if err := flush(); err != nil {
					return total, err
				}
			}
			continue
		}
		line := strings.TrimSpace(raw)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		total++
		var br batchRequest
		if err := json.Unmarshal([]byte(line), &br); err != nil {
			slots = append(slots, slot{reqIdx: -1, resp: batchResponse{
				Index: total, Error: fmt.Sprintf("line %d: %v", lr.line, err)}})
		} else if q, err := cqa.ParseQuery(br.Query); err != nil {
			slots = append(slots, slot{reqIdx: -1, resp: batchResponse{
				Index: total, Query: br.Query, Error: fmt.Sprintf("line %d: %v", lr.line, err)}})
		} else if db, err := instance.ParseFacts(strings.Join(br.Facts, " ")); err != nil {
			slots = append(slots, slot{reqIdx: -1, resp: batchResponse{
				Index: total, Query: br.Query, Error: fmt.Sprintf("line %d: %v", lr.line, err)}})
		} else {
			slots = append(slots, slot{reqIdx: len(reqs), resp: batchResponse{
				Index: total, Query: br.Query}})
			reqs = append(reqs, cqa.Request{Query: q, DB: db})
		}
		if len(slots) >= batchChunk {
			if err := flush(); err != nil {
				return total, err
			}
		}
	}
	if err := flush(); err != nil {
		return total, err
	}
	return total, nil
}

// batchCSV reads "id,query,rel,key,val" rows — one fact per row, rows
// for one request id consecutive, the query column constant within a
// request — and answers one CSV row "id,query,certain,class,method,
// error" per request on stdout. Rows are RFC-4180 CSV (quoted fields
// allowed, one row per line) and the fact columns are exactly the
// instance CSV format: each request's rows are re-encoded and fed
// through instance.ReadCSV, so files written by Instance.WriteCSV —
// including quoted values — paste in behind an id,query prefix. A
// malformed row, a conflicting query column, or an id that reappears
// after its run ended (interleaved requests; detected within a bounded
// window of recent ids, so memory stays constant) yields an error row
// for that request; the rest of the stream is unaffected.
func batchCSV(eng *cqa.Engine, lr *lineReader, w io.Writer) (int, error) {
	out := bufio.NewWriter(w)
	defer out.Flush()
	cw := csv.NewWriter(out)

	type slot struct {
		id, query string
		reqIdx    int // -1: errMsg answers the request
		errMsg    string
	}
	var slots []slot
	var reqs []cqa.Request
	total := 0

	flush := func() error {
		results := eng.CertainBatch(context.Background(), reqs)
		for _, sl := range slots {
			rec := []string{sl.id, sl.query, "", "", "", sl.errMsg}
			if sl.reqIdx >= 0 {
				res := results[sl.reqIdx]
				if res.Err != nil {
					rec[5] = res.Err.Error()
				} else {
					rec[2] = fmt.Sprintf("%v", res.Certain)
					rec[3] = res.Class.String()
					rec[4] = string(res.Method)
				}
			}
			if err := cw.Write(rec); err != nil {
				return err
			}
		}
		cw.Flush()
		if err := cw.Error(); err != nil {
			return err
		}
		slots, reqs = slots[:0], reqs[:0]
		return out.Flush()
	}

	// group accumulates the current run of same-id rows; its fact rows
	// are re-encoded through a csv.Writer so quoted fields survive into
	// instance.ReadCSV. seen records the most recently finalized ids —
	// bounded at seenWindow so arbitrarily long streams stay in
	// constant memory — to catch an interleaved id when it reappears.
	type group struct {
		id, query string
		facts     strings.Builder
		fw        *csv.Writer
		errMsg    string
	}
	var cur *group
	const seenWindow = 4 * batchChunk
	seen := make(map[string]bool, seenWindow)
	var seenRing []string
	seenNext := 0

	finalize := func() error {
		if cur == nil {
			return nil
		}
		g := cur
		cur = nil
		if !seen[g.id] {
			if len(seenRing) < seenWindow {
				seenRing = append(seenRing, g.id)
			} else {
				delete(seen, seenRing[seenNext])
				seenRing[seenNext] = g.id
				seenNext = (seenNext + 1) % seenWindow
			}
			seen[g.id] = true
		}
		total++
		sl := slot{id: g.id, query: g.query, reqIdx: -1, errMsg: g.errMsg}
		if g.errMsg == "" {
			g.fw.Flush()
			q, err := cqa.ParseQuery(g.query)
			if err != nil {
				sl.errMsg = err.Error()
			} else if db, err := instance.ReadCSV(strings.NewReader(g.facts.String())); err != nil {
				sl.errMsg = err.Error()
			} else {
				sl.reqIdx = len(reqs)
				reqs = append(reqs, cqa.Request{Query: q, DB: db})
			}
		}
		slots = append(slots, sl)
		if len(slots) >= batchChunk {
			return flush()
		}
		return nil
	}

	for {
		raw, tooLong, err := lr.next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return total, err
		}
		if tooLong {
			return total, lr.errLineTooLong()
		}
		text := strings.TrimSpace(raw)
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		// RFC-4180 parse of one row. On a field-count mismatch the
		// record still comes back alongside ErrFieldCount, so the error
		// can be attributed to the row's request id; a row whose id is
		// unrecoverable (bad quoting) aborts with its line number.
		cr := csv.NewReader(strings.NewReader(text))
		cr.FieldsPerRecord = 5
		cr.TrimLeadingSpace = true
		rec, recErr := cr.Read()
		if len(rec) == 0 {
			return total, fmt.Errorf("line %d: %v", lr.line, recErr)
		}
		id := strings.TrimSpace(rec[0])
		if id == "" {
			return total, fmt.Errorf("line %d: missing request id in %q", lr.line, text)
		}
		if cur == nil || cur.id != id {
			if err := finalize(); err != nil {
				return total, err
			}
			cur = &group{id: id}
			cur.fw = csv.NewWriter(&cur.facts)
			if seen[id] {
				cur.errMsg = fmt.Sprintf("line %d: request id %q interleaved: rows for one request must be consecutive", lr.line, id)
			}
		}
		if cur.errMsg != "" {
			continue // request already failed; skip its remaining rows
		}
		if recErr != nil {
			cur.errMsg = fmt.Sprintf("line %d: want \"id,query,rel,key,val\", got %q", lr.line, text)
			continue
		}
		q := strings.TrimSpace(rec[1])
		switch {
		case q == "":
			cur.errMsg = fmt.Sprintf("line %d: empty query for request %q", lr.line, id)
		case cur.query == "":
			cur.query = q
		case cur.query != q:
			cur.errMsg = fmt.Sprintf("line %d: query %q conflicts with %q for request %q", lr.line, q, cur.query, id)
		}
		if cur.errMsg != "" {
			continue
		}
		if err := cur.fw.Write(rec[2:]); err != nil {
			return total, err
		}
	}
	if err := finalize(); err != nil {
		return total, err
	}
	if err := flush(); err != nil {
		return total, err
	}
	return total, nil
}

func cmdRewrite(args []string) error {
	fs := flag.NewFlagSet("rewrite", flag.ExitOnError)
	qs := fs.String("q", "", "path query word")
	fs.Parse(args)
	q, err := cqa.ParseQuery(*qs)
	if err != nil {
		return err
	}
	s, err := cqa.Rewrite(q)
	if err != nil {
		return err
	}
	fmt.Println(s)
	return nil
}

func cmdLanguage(args []string) error {
	fs := flag.NewFlagSet("language", flag.ExitOnError)
	qs := fs.String("q", "", "path query word")
	max := fs.Int("max", 12, "maximum word length")
	fs.Parse(args)
	q, err := cqa.ParseQuery(*qs)
	if err != nil {
		return err
	}
	for _, w := range cqa.RewindLanguage(q, *max) {
		fmt.Println(w)
	}
	return nil
}

func cmdNFA(args []string) error {
	fs := flag.NewFlagSet("nfa", flag.ExitOnError)
	qs := fs.String("q", "", "path query word")
	fs.Parse(args)
	q, err := cqa.ParseQuery(*qs)
	if err != nil {
		return err
	}
	fmt.Print(automata.New(q.Word()).DOT())
	return nil
}

func cmdTrace(args []string) error {
	fs := flag.NewFlagSet("trace", flag.ExitOnError)
	qs := fs.String("q", "", "path query word")
	dbPath := fs.String("db", "", "instance CSV file")
	facts := fs.String("facts", "", "inline fact list")
	fs.Parse(args)
	q, err := cqa.ParseQuery(*qs)
	if err != nil {
		return err
	}
	db, err := loadInstance(*dbPath, *facts)
	if err != nil {
		return err
	}
	res, traces := fixpoint.SolveNaive(db, q.Word())
	fmt.Print(fixpoint.FormatTrace(q.Word(), traces))
	fmt.Printf("certain: %v, starts: %v\n", res.Certain, res.Starts)
	return nil
}

func cmdCount(args []string) error {
	fs := flag.NewFlagSet("count", flag.ExitOnError)
	dbPath := fs.String("db", "", "instance CSV file")
	facts := fs.String("facts", "", "inline fact list")
	fs.Parse(args)
	db, err := loadInstance(*dbPath, *facts)
	if err != nil {
		return err
	}
	fmt.Println(cqa.CountRepairs(db))
	return nil
}
