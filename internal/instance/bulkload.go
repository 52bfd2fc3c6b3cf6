package instance

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"runtime"
	"sort"
	"strings"
	"sync"

	"cqa/internal/par"
)

// ReadCSVParallel reads an instance from the same CSV format as
// ReadCSV with a streaming parallel pipeline: a reader goroutine cuts
// the input into chunks that end at a record end, parse workers turn
// chunks into fact batches (a manual fast path for unquoted rows, a
// per-record encoding/csv reader for quoted ones, whose fields may span
// lines), and a dedup/build stage folds the batches into the instance
// while the block index and the occurrence counts build on separate
// goroutines. The finalize step sorts the block values, sharded, and
// builds and publishes the root snapshot with the builder Interned
// uses, its interning sharded too, so the first decision after a bulk
// load starts from a warm snapshot instead of paying a serial O(|db|)
// intern.
//
// The resulting instance is Equal to ReadCSV's: same facts, same block
// index, same occurrence counts, same interned snapshot. Malformed
// input yields the error of the lowest-numbered bad record, named by
// the line it starts on, as ReadCSV's error is (message wording may
// differ for unquoted rows). workers <= 0 means GOMAXPROCS; workers ==
// 1 delegates to ReadCSV (plus the snapshot pre-build, for parity).
func ReadCSVParallel(r io.Reader, workers int) (*Instance, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers <= 1 {
		db, err := ReadCSV(r)
		if err != nil {
			return nil, err
		}
		db.Interned()
		return db, nil
	}

	// First-error tracking: chunks are produced in line order, so the
	// minimum-line error over all parsed chunks is the true first error.
	var (
		errMu    sync.Mutex
		firstErr error
		errLine  = -1
	)
	fail := func(line int, err error) {
		errMu.Lock()
		if errLine < 0 || line < errLine {
			errLine, firstErr = line, err
		}
		errMu.Unlock()
	}
	failed := func() bool {
		errMu.Lock()
		defer errMu.Unlock()
		return errLine >= 0
	}

	type rawChunk struct {
		data      []byte
		firstLine int
	}
	rawCh := make(chan rawChunk, workers)
	factCh := make(chan []Fact, workers)

	// Reader: fixed-size chunks cut after their last complete record;
	// the partial trailing record carries into the next chunk. Production
	// stops early once any stage has failed.
	const chunkBytes = 1 << 18
	go func() {
		defer close(rawCh)
		line := 1
		var pending []byte
		for {
			// A record longer than a chunk doubles the next read, so that
			// it costs time linear in its length.
			buf := make([]byte, len(pending)+max(chunkBytes, len(pending)))
			n := copy(buf, pending)
			m, rerr := io.ReadFull(r, buf[n:])
			buf = buf[:n+m]
			if rerr != nil && rerr != io.EOF && rerr != io.ErrUnexpectedEOF {
				fail(line, fmt.Errorf("instance: read csv: %w", rerr))
				return
			}
			if rerr != nil { // EOF: flush everything, including a final unterminated record
				if len(buf) > 0 && !failed() {
					rawCh <- rawChunk{buf, line}
				}
				return
			}
			// Cut after the last complete record: a quoted field may hold
			// newlines, so not every newline ends a record.
			cut := 0
			for n := recordEnd(buf); n > 0; n = recordEnd(buf[cut:]) {
				cut += n
			}
			if cut == 0 {
				// A single record longer than the chunk: keep growing.
				pending = buf
				continue
			}
			send := buf[:cut]
			pending = append([]byte(nil), buf[cut:]...)
			if failed() {
				return
			}
			rawCh <- rawChunk{send, line}
			line += bytes.Count(send, []byte{'\n'})
		}
	}()

	// Parse workers.
	var parseWG sync.WaitGroup
	parseWG.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer parseWG.Done()
			for ch := range rawCh {
				facts, line, err := parseCSVChunk(ch.data, ch.firstLine)
				if err != nil {
					fail(line, err)
					continue
				}
				if len(facts) > 0 && !failed() {
					factCh <- facts
				}
			}
		}()
	}
	go func() {
		parseWG.Wait()
		close(factCh)
	}()

	// Dedup on this goroutine; the block index and the occurrence
	// counts (replicating Add's accounting exactly) build concurrently
	// from the deduplicated batches.
	db := New()
	blockCh := make(chan []Fact, workers)
	countCh := make(chan []Fact, workers)
	var buildWG sync.WaitGroup
	buildWG.Add(2)
	go func() {
		defer buildWG.Done()
		for fs := range blockCh {
			for _, f := range fs {
				id := BlockID{f.Rel, f.Key}
				db.blocks[id] = append(db.blocks[id], f.Val)
			}
		}
	}()
	go func() {
		defer buildWG.Done()
		for fs := range countCh {
			for _, f := range fs {
				if f.Key == f.Val {
					db.adom[f.Key] += 2
				} else {
					db.adom[f.Key]++
					db.adom[f.Val]++
				}
				db.rels[f.Rel]++
			}
		}
	}()
	for fs := range factCh {
		uniq := fs[:0]
		for _, f := range fs {
			if _, dup := db.facts[f]; !dup {
				db.facts[f] = struct{}{}
				uniq = append(uniq, f)
			}
		}
		if len(uniq) > 0 {
			blockCh <- uniq
			countCh <- uniq
		}
	}
	close(blockCh)
	close(countCh)
	buildWG.Wait()

	if failed() {
		return nil, firstErr
	}
	finalizeBulk(db, workers)
	return db, nil
}

// recordEnd returns the length of the CSV record at the start of data,
// its ending newline included, or 0 when data holds no complete
// record. A comment line is a record of its own, quotes and all; any
// other record ends at the first newline outside quotes, by quote
// parity counted from the record start. On input that ReadCSV accepts
// the parity is exact, so the records are encoding/csv's. A record
// with a stray quote may run on past encoding/csv's end, but it starts
// where encoding/csv's does and holds the bytes its parse fails on, so
// it fails at the same line.
func recordEnd(data []byte) int {
	quoted, comment := false, len(data) > 0 && data[0] == '#'
	for i, c := range data {
		if c == '"' && !comment {
			quoted = !quoted
		} else if c == '\n' && !quoted {
			return i + 1
		}
	}
	return 0
}

// parseCSVChunk parses one chunk of complete records. On error it
// returns the absolute line number of the first bad record's start.
func parseCSVChunk(data []byte, firstLine int) ([]Fact, int, error) {
	facts := make([]Fact, 0, len(data)/12)
	line := firstLine
	for len(data) > 0 {
		var row []byte
		if n := recordEnd(data); n > 0 {
			row, data = data[:n-1], data[n:]
		} else {
			row, data = data, nil
		}
		ln := line
		line++
		if len(row) > 0 && row[len(row)-1] == '\r' {
			row = row[:len(row)-1]
		}
		// Comment detection matches encoding/csv: the comment rune must
		// be the line's first byte, untrimmed.
		if len(row) == 0 || row[0] == '#' {
			continue
		}
		var rel, key, val string
		if bytes.IndexByte(row, '"') >= 0 {
			line += bytes.Count(row, []byte{'\n'})
			rec, err := parseQuotedRow(row)
			if err != nil {
				return nil, ln, fmt.Errorf("instance: read csv: line %d: %w", ln, err)
			}
			rel, key, val = rec[0], rec[1], rec[2]
		} else {
			// Fast path: no quotes, so the row is exactly three
			// comma-separated raw fields. One string allocation; the
			// fields are substrings.
			s := string(row)
			c1 := strings.IndexByte(s, ',')
			var c2 int
			if c1 < 0 {
				return nil, ln, fmt.Errorf("instance: read csv: line %d: wrong number of fields in %q", ln, s)
			}
			if c2 = strings.IndexByte(s[c1+1:], ','); c2 < 0 {
				return nil, ln, fmt.Errorf("instance: read csv: line %d: wrong number of fields in %q", ln, s)
			}
			c2 += c1 + 1
			if strings.IndexByte(s[c2+1:], ',') >= 0 {
				return nil, ln, fmt.Errorf("instance: read csv: line %d: wrong number of fields in %q", ln, s)
			}
			rel = strings.TrimSpace(s[:c1])
			key = strings.TrimSpace(s[c1+1 : c2])
			val = strings.TrimSpace(s[c2+1:])
		}
		if rel == "" || key == "" || val == "" {
			return nil, ln, fmt.Errorf("instance: line %d: empty field in %q", ln, rel+","+key+","+val)
		}
		facts = append(facts, Fact{Rel: rel, Key: key, Val: val})
	}
	return facts, 0, nil
}

// parseQuotedRow parses a single record containing quotes, which may
// span lines, through encoding/csv with ReadCSV's exact configuration.
func parseQuotedRow(row []byte) ([]string, error) {
	cr := csv.NewReader(bytes.NewReader(row))
	cr.Comment = '#'
	cr.FieldsPerRecord = 3
	cr.TrimLeadingSpace = true
	rec, err := cr.Read()
	if err != nil {
		return nil, err
	}
	for i := range rec {
		rec[i] = strings.TrimSpace(rec[i])
	}
	return rec, nil
}

// finalizeBulk sorts each block's values into the order Add maintains
// incrementally, sharded across workers and overlapped with the sort of
// the active domain, then builds the root snapshot with the same
// builder as Interned and publishes it.
func finalizeBulk(db *Instance, workers int) {
	var consts []string
	done := make(chan struct{})
	go func() {
		defer close(done)
		consts = sortedNames(db.adom)
	}()
	bids := db.blockIDs()
	bb := par.Blocks(len(bids), workers, 1)
	par.Run(len(bb)-1, func(w int) {
		for _, id := range bids[bb[w]:bb[w+1]] {
			vals := db.blocks[id]
			if !sort.StringsAreSorted(vals) {
				sort.Strings(vals)
			}
		}
	})
	<-done
	db.publish(db.internRoot(consts, bids, workers))
}
