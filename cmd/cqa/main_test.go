package main

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"testing"

	"cqa"
	"cqa/internal/instance"
)

func testEngine() *cqa.Engine {
	return cqa.NewEngine(cqa.EngineConfig{Workers: 2})
}

func TestLineReaderOversizedLineDoesNotPoisonStream(t *testing.T) {
	long := strings.Repeat("x", 100)
	in := "first\n" + long + "\nlast"
	lr := newLineReader(strings.NewReader(in), 32)

	line, tooLong, err := lr.next()
	if err != nil || tooLong || line != "first" || lr.line != 1 {
		t.Fatalf("line 1: %q tooLong=%v err=%v lineNo=%d", line, tooLong, err, lr.line)
	}
	line, tooLong, err = lr.next()
	if err != nil || !tooLong || lr.line != 2 {
		t.Fatalf("line 2: %q tooLong=%v err=%v lineNo=%d", line, tooLong, err, lr.line)
	}
	// The stream continues past the oversized line, including a final
	// line without a terminator.
	line, tooLong, err = lr.next()
	if err != nil || tooLong || line != "last" || lr.line != 3 {
		t.Fatalf("line 3: %q tooLong=%v err=%v lineNo=%d", line, tooLong, err, lr.line)
	}
	if _, _, err = lr.next(); err != io.EOF {
		t.Fatalf("want EOF, got %v", err)
	}
}

func TestLineReaderMaxIsContentBytes(t *testing.T) {
	// A line of exactly max content bytes passes whether terminated or
	// not; one more byte trips the bound.
	exact := strings.Repeat("a", 16)
	lr := newLineReader(strings.NewReader(exact+"\n"+exact+"x\n"+exact), 16)
	if line, tooLong, err := lr.next(); err != nil || tooLong || line != exact {
		t.Fatalf("terminated exact-max line: %q tooLong=%v err=%v", line, tooLong, err)
	}
	if _, tooLong, err := lr.next(); err != nil || !tooLong {
		t.Fatalf("max+1 line: tooLong=%v err=%v", tooLong, err)
	}
	if line, tooLong, err := lr.next(); err != nil || tooLong || line != exact {
		t.Fatalf("unterminated exact-max line: %q tooLong=%v err=%v", line, tooLong, err)
	}
}

func TestLineReaderLongLineSpanningBuffers(t *testing.T) {
	// Longer than bufio's internal buffer but under max: must come back
	// intact across ReadSlice chunks.
	long := strings.Repeat("y", 10000)
	lr := newLineReader(strings.NewReader(long+"\nnext\n"), 1<<20)
	line, tooLong, err := lr.next()
	if err != nil || tooLong || line != long {
		t.Fatalf("spanning line: len=%d tooLong=%v err=%v", len(line), tooLong, err)
	}
	if line, _, _ = lr.next(); line != "next" {
		t.Fatalf("next line: %q", line)
	}
}

func TestBatchLinesStreamsInChunks(t *testing.T) {
	// More requests than batchChunk, so at least two engine batches run
	// and the numbering continues across the chunk boundary.
	n := batchChunk + 10
	var in strings.Builder
	for i := 0; i < n; i++ {
		in.WriteString("RRX ; R(0,1) R(1,2) R(1,3) R(2,3) X(3,4)\n")
	}
	var out strings.Builder
	eng := testEngine()
	total, err := batchLines(eng, newLineReader(strings.NewReader(in.String()), defaultMaxLine), &out)
	if err != nil {
		t.Fatal(err)
	}
	if total != n {
		t.Fatalf("want %d requests counted, got %d", n, total)
	}
	lines := strings.Split(strings.TrimRight(out.String(), "\n"), "\n")
	if len(lines) != n {
		t.Fatalf("want %d result lines, got %d", n, len(lines))
	}
	for i, line := range lines {
		want := fmt.Sprintf("%-4d %-12v certain=true  class=NL-complete method=nl-loop", i+1, "RRX")
		if line != want {
			t.Fatalf("line %d:\n got %q\nwant %q", i+1, line, want)
		}
	}
	// Stats report plans compiled (1 distinct word), not cache residency.
	if s := eng.Stats(); s.Plans.Compiles != 1 {
		t.Fatalf("want 1 plan compiled, stats %+v", s)
	}
}

func TestBatchStatsLineReportsMemoCounters(t *testing.T) {
	eng := testEngine()
	in := "RRX ; R(0,1) R(1,2) R(1,3) R(2,3) X(3,4)\n"
	if _, err := batchLines(eng, newLineReader(strings.NewReader(in), defaultMaxLine), io.Discard); err != nil {
		t.Fatal(err)
	}
	comment := statsComment(eng.Stats())
	for _, line := range strings.Split(comment, "\n") {
		if !strings.HasPrefix(line, "# ") {
			t.Fatalf("stats comment line lacks prefix: %q", line)
		}
	}
	if !strings.Contains(comment, "# plans: ") || !strings.Contains(comment, "# memo: ") ||
		!strings.Contains(comment, "cold builds") {
		t.Fatalf("stats comment: %q", comment)
	}
	// The NL tier memoizes per snapshot, so a decided NL request must
	// register at least one miss (the cold build) in the aggregate.
	if st := eng.Stats().Memo; st.Hits+st.Misses == 0 {
		t.Fatalf("memo stats empty after a decided batch: %+v", st)
	}
}

// TestBatchLinesEchoesQueryAsWritten: the lines format prints each
// query as the request spelled it. "A b" (two symbols) and "Ab" (one)
// are different words that Query.String() renders alike.
func TestBatchLinesEchoesQueryAsWritten(t *testing.T) {
	in := "A b ; A(0,1) b(1,2)\n  Ab ; A(0,1) b(1,2)\n"
	var out strings.Builder
	if _, err := batchLines(testEngine(), newLineReader(strings.NewReader(in), defaultMaxLine), &out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(out.String(), "\n"), "\n")
	want := []string{
		fmt.Sprintf("%-4d %-12s certain=%-5v", 1, "A b", true),
		fmt.Sprintf("%-4d %-12s certain=%-5v", 2, "Ab", false),
	}
	if len(lines) != len(want) {
		t.Fatalf("want %d result lines, got %q", len(want), out.String())
	}
	for i := range want {
		if !strings.HasPrefix(lines[i], want[i]) {
			t.Errorf("line %d:\n got %q\nwant prefix %q", i+1, lines[i], want[i])
		}
	}
}

func TestBatchLinesErrorsCarryLineNumbers(t *testing.T) {
	in := "RRX ; R(0,1)\n\n# comment\nBOGUS-LINE\n"
	_, err := batchLines(testEngine(), newLineReader(strings.NewReader(in), defaultMaxLine), io.Discard)
	if err == nil || !strings.Contains(err.Error(), "line 4:") {
		t.Fatalf("want line 4 error, got %v", err)
	}
}

func TestBatchLinesMaxLine(t *testing.T) {
	in := "RRX ; R(0,1)\nRRX ; " + strings.Repeat("R(0,1) ", 50) + "\n"
	_, err := batchLines(testEngine(), newLineReader(strings.NewReader(in), 64), io.Discard)
	if err == nil || !strings.Contains(err.Error(), "line 2") || !strings.Contains(err.Error(), "-max-line") {
		t.Fatalf("want line-2 over-length error, got %v", err)
	}
}

// TestBatchRejectsBadSizeFlags: cqa batch rejects an out-of-range size
// flag with an error naming the flag, before reading any request.
func TestBatchRejectsBadSizeFlags(t *testing.T) {
	for _, args := range [][]string{{"-max-line", "0"}, {"-max-line", "-1"}} {
		if err := cmdBatch(args); err == nil || !strings.Contains(err.Error(), args[0]) {
			t.Errorf("cqa batch %s: got %v, want an error naming %s", strings.Join(args, " "), err, args[0])
		}
	}
}

func ndjsonResponses(t *testing.T, out string) []batchResponse {
	t.Helper()
	var resps []batchResponse
	dec := json.NewDecoder(strings.NewReader(out))
	for dec.More() {
		var r batchResponse
		if err := dec.Decode(&r); err != nil {
			t.Fatalf("decode: %v (output %q)", err, out)
		}
		resps = append(resps, r)
	}
	return resps
}

func TestBatchNDJSONErrorPathsCarryLineNumbers(t *testing.T) {
	in := strings.Join([]string{
		`{"query": "RRX", "facts": ["R(0,1)", "R(1,2)", "R(1,3)", "R(2,3)", "X(3,4)"]}`,
		`{not json`,
		`{"query": "!!!", "facts": []}`,
		`{"query": "RRX", "facts": ["bogus"]}`,
	}, "\n") + "\n"
	var out strings.Builder
	if _, err := batchNDJSON(testEngine(), newLineReader(strings.NewReader(in), defaultMaxLine), &out); err != nil {
		t.Fatal(err)
	}
	resps := ndjsonResponses(t, out.String())
	if len(resps) != 4 {
		t.Fatalf("want 4 responses, got %d", len(resps))
	}
	if resps[0].Error != "" || resps[0].Certain == nil || !*resps[0].Certain {
		t.Fatalf("response 1: %+v", resps[0])
	}
	// All three parse error paths — JSON decode, query parse, facts
	// parse — must identify the failing line.
	for i, resp := range resps[1:] {
		if resp.Index != i+2 || !strings.Contains(resp.Error, fmt.Sprintf("line %d:", i+2)) {
			t.Fatalf("response %d lacks its line prefix: %+v", i+2, resp)
		}
		if resp.Certain != nil {
			t.Fatalf("error response %d has a decision: %+v", i+2, resp)
		}
	}
}

func TestBatchNDJSONOversizedLineGetsPerLineError(t *testing.T) {
	good := `{"query": "RRX", "facts": ["R(0,1)", "R(1,2)", "R(1,3)", "R(2,3)", "X(3,4)"]}`
	long := `{"query": "RRX", "facts": ["` + strings.Repeat("R(0,1)", 100) + `"]}`
	in := good + "\n" + long + "\n" + good + "\n"
	var out strings.Builder
	if _, err := batchNDJSON(testEngine(), newLineReader(strings.NewReader(in), 128), &out); err != nil {
		t.Fatal(err)
	}
	resps := ndjsonResponses(t, out.String())
	if len(resps) != 3 {
		t.Fatalf("want 3 responses, got %d: %q", len(resps), out.String())
	}
	if !strings.Contains(resps[1].Error, "line 2") || !strings.Contains(resps[1].Error, "-max-line") {
		t.Fatalf("oversized line response: %+v", resps[1])
	}
	// The stream was not aborted: the line after the oversized one is
	// still answered.
	if resps[2].Error != "" || resps[2].Certain == nil || !*resps[2].Certain {
		t.Fatalf("response after oversized line: %+v", resps[2])
	}
}

func csvRows(t *testing.T, out string) [][]string {
	t.Helper()
	rows, err := csv.NewReader(strings.NewReader(out)).ReadAll()
	if err != nil {
		t.Fatalf("reading output CSV: %v (output %q)", err, out)
	}
	return rows
}

func TestBatchCSVRoundTripsInstanceCSV(t *testing.T) {
	// Build the fact rows through Instance.WriteCSV — including values
	// that WriteCSV must quote — so the request format provably
	// round-trips the instance CSV loader.
	db := instance.MustParseFacts("R(0,1) R(1,2) R(1,3) R(2,3) X(3,4)")
	// S is not in RRX, so the decision is unchanged, but WriteCSV must
	// quote the value and the batch parser must preserve it.
	db.AddFact("S", "0", `comma,and"quote`)
	var facts strings.Builder
	if err := db.WriteCSV(&facts); err != nil {
		t.Fatal(err)
	}
	var in strings.Builder
	for _, id := range []string{"a", "b"} {
		for _, row := range strings.Split(strings.TrimSpace(facts.String()), "\n") {
			fmt.Fprintf(&in, "%s,RRX,%s\n", id, row)
		}
	}
	var out strings.Builder
	if _, err := batchCSV(testEngine(), newLineReader(strings.NewReader(in.String()), defaultMaxLine), &out); err != nil {
		t.Fatal(err)
	}
	rows := csvRows(t, out.String())
	if len(rows) != 2 {
		t.Fatalf("want 2 result rows, got %v", rows)
	}
	for i, id := range []string{"a", "b"} {
		want := []string{id, "RRX", "true", "NL-complete", "nl-loop", ""}
		if fmt.Sprint(rows[i]) != fmt.Sprint(want) {
			t.Fatalf("row %d:\n got %v\nwant %v", i, rows[i], want)
		}
	}
}

func TestBatchCSVMalformedAndInterleaved(t *testing.T) {
	in := strings.Join([]string{
		"r1,RRX,R,0,1",
		"r1,RRX,R,1,2",
		"r1,RRX,R,1,3",
		"r1,RRX,R,2,3",
		"r1,RRX,X,3,4",
		"r2,RRX,R,0,1,EXTRA-FIELD", // malformed arity
		"r2,RRX,R,1,2",             // rest of the poisoned request is skipped
		"r3,RRX,R,0,1",
		"r3,RXRX,R,1,2", // conflicting query column
		"r4,RRX,,1,2",   // empty field rejected by the instance loader
		"r1,RRX,R,0,1",  // r1 reappears: interleaved
		"r5,RR,R,a,b",
	}, "\n") + "\n"
	var out strings.Builder
	if _, err := batchCSV(testEngine(), newLineReader(strings.NewReader(in), defaultMaxLine), &out); err != nil {
		t.Fatal(err)
	}
	rows := csvRows(t, out.String())
	if len(rows) != 6 {
		t.Fatalf("want 6 result rows, got %d: %v", len(rows), rows)
	}
	check := func(row []string, id, errFragment string) {
		t.Helper()
		if row[0] != id {
			t.Fatalf("row for %q answered as %v", id, row)
		}
		if errFragment == "" && row[5] != "" {
			t.Fatalf("row %q unexpectedly errored: %v", id, row)
		}
		if errFragment != "" && !strings.Contains(row[5], errFragment) {
			t.Fatalf("row %q: want error containing %q, got %v", id, errFragment, row)
		}
	}
	check(rows[0], "r1", "")
	check(rows[1], "r2", "line 6:")
	check(rows[2], "r3", "line 9:")
	check(rows[3], "r4", "empty field")
	check(rows[4], "r1", "interleaved")
	check(rows[5], "r5", "")
	if rows[0][2] != "true" || rows[5][2] != "false" {
		t.Fatalf("decisions: r1=%v r5=%v", rows[0], rows[5])
	}
}
