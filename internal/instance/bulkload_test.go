package instance

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// bulkCSV renders n pseudo-random facts over a modest universe as CSV,
// with duplicates (the dedup stage must collapse them exactly like
// repeated Add calls do).
func bulkCSV(n int, seed int64) string {
	rng := rand.New(rand.NewSource(seed))
	rels := []string{"R", "X", "Y", "A"}
	var b strings.Builder
	for i := 0; i < n; i++ {
		k := rng.Intn(n/4 + 1)
		v := rng.Intn(n/4 + 1)
		fmt.Fprintf(&b, "%s,c%d,c%d\n", rels[rng.Intn(len(rels))], k, v)
	}
	return b.String()
}

// checkSameInstance asserts full equivalence: fact-level Equal both
// ways plus identical interned snapshots (id tables and block lists).
func checkSameInstance(t *testing.T, got, want *Instance) {
	t.Helper()
	if !got.Equal(want) || !want.Equal(got) {
		t.Fatalf("instances differ: got %d facts, want %d", len(got.facts), len(want.facts))
	}
	gi, wi := got.Interned(), want.Interned()
	if gi.NumFacts() != wi.NumFacts() {
		t.Fatalf("NumFacts = %d, want %d", gi.NumFacts(), wi.NumFacts())
	}
	gc, wc := gi.Consts(), wi.Consts()
	if len(gc) != len(wc) {
		t.Fatalf("NumConsts = %d, want %d", len(gc), len(wc))
	}
	for i := range gc {
		if gc[i] != wc[i] {
			t.Fatalf("const id %d = %q, want %q", i, gc[i], wc[i])
		}
	}
	if gi.NumRels() != wi.NumRels() {
		t.Fatalf("NumRels = %d, want %d", gi.NumRels(), wi.NumRels())
	}
	for r := 0; r < gi.NumRels(); r++ {
		if gi.Rel(int32(r)) != wi.Rel(int32(r)) {
			t.Fatalf("rel id %d = %q, want %q", r, gi.Rel(int32(r)), wi.Rel(int32(r)))
		}
		gb, wb := gi.RelBlocks(int32(r)), wi.RelBlocks(int32(r))
		if len(gb) != len(wb) {
			t.Fatalf("rel %d: %d blocks, want %d", r, len(gb), len(wb))
		}
		for i := range gb {
			if gb[i].Key != wb[i].Key {
				t.Fatalf("rel %d block %d: key %d, want %d", r, i, gb[i].Key, wb[i].Key)
			}
			if len(gb[i].Vals) != len(wb[i].Vals) {
				t.Fatalf("rel %d block %d: %d vals, want %d", r, i, len(gb[i].Vals), len(wb[i].Vals))
			}
			for j := range gb[i].Vals {
				if gb[i].Vals[j] != wb[i].Vals[j] {
					t.Fatalf("rel %d block %d val %d: %d, want %d", r, i, j, gb[i].Vals[j], wb[i].Vals[j])
				}
			}
		}
	}
}

// TestReadCSVParallelEquivalence loads the same multi-chunk input
// through both paths and demands identical instances and identical
// interned snapshots. 50k rows at ~14 bytes each spans several reader
// chunks, so chunk-boundary line carry is exercised for real.
func TestReadCSVParallelEquivalence(t *testing.T) {
	csvText := bulkCSV(50000, 7)
	want, err := ReadCSV(strings.NewReader(csvText))
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 8} {
		got, err := ReadCSVParallel(strings.NewReader(csvText), workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		checkSameInstance(t, got, want)
		if got.snap.Load() == nil {
			t.Fatalf("workers=%d: interned snapshot not pre-published", workers)
		}
	}
}

// TestReadCSVParallelQuirks covers the format corners: quoted fields
// with embedded commas and quotes, comment and blank lines, CRLF
// endings, surrounding whitespace, and a missing trailing newline.
func TestReadCSVParallelQuirks(t *testing.T) {
	in := "# header comment\r\n" +
		"R,a,b\r\n" +
		"\n" +
		"  R , a , c\n" +
		"X,\"k,1\",\"va\"\"l\"\n" +
		"# mid comment\n" +
		"Y,a,a\n" +
		"X,last,row"
	want, err := ReadCSV(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSVParallel(strings.NewReader(in), 4)
	if err != nil {
		t.Fatal(err)
	}
	checkSameInstance(t, got, want)
	if !got.Contains(Fact{Rel: "X", Key: "k,1", Val: `va"l`}) {
		t.Fatalf("quoted fact missing: %v", got.Facts())
	}
	if !got.Contains(Fact{Rel: "X", Key: "last", Val: "row"}) {
		t.Fatalf("unterminated final line dropped: %v", got.Facts())
	}
}

func TestReadCSVParallelEmpty(t *testing.T) {
	db, err := ReadCSVParallel(strings.NewReader(""), 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(db.facts) != 0 || db.Interned().NumConsts() != 0 {
		t.Fatalf("empty input produced %d facts", len(db.facts))
	}
}

// TestReadCSVParallelErrors checks that malformed input fails with the
// lowest bad line's error even when later chunks also contain bad rows
// or parse concurrently.
func TestReadCSVParallelErrors(t *testing.T) {
	cases := []struct {
		name, in, wantSub string
	}{
		{"empty-field", "R,a,b\nR,,b\n", "line 2"},
		{"too-few-fields", "R,a,b\nX,a\n", "line 2"},
		{"too-many-fields", "R,a,b,c\n", "line 1"},
		{"bad-quote", "R,\"a,b\n", "line 1"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ReadCSV(strings.NewReader(tc.in)); err == nil {
				t.Fatalf("sequential path accepted %q", tc.in)
			}
			_, err := ReadCSVParallel(strings.NewReader(tc.in), 4)
			if err == nil {
				t.Fatalf("accepted %q", tc.in)
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("error %q does not mention %q", err, tc.wantSub)
			}
		})
	}
}

// TestReadCSVParallelFirstErrorWins plants two bad rows chunks apart;
// the reported error must name the earlier line no matter which worker
// hits its chunk first.
func TestReadCSVParallelFirstErrorWins(t *testing.T) {
	rows := strings.Split(strings.TrimSuffix(bulkCSV(40000, 9), "\n"), "\n")
	rows[99] = "R,,broken"    // line 100
	rows[38999] = "X,,broken" // line 39000
	in := strings.Join(rows, "\n") + "\n"
	for i := 0; i < 5; i++ {
		_, err := ReadCSVParallel(strings.NewReader(in), 8)
		if err == nil {
			t.Fatal("bad input accepted")
		}
		if !strings.Contains(err.Error(), "line 100") {
			t.Fatalf("run %d: error %q, want first bad line 100", i, err)
		}
	}
}

// TestReadCSVParallelWorkersOne checks the delegation path: identical
// to ReadCSV, with the snapshot already published.
func TestReadCSVParallelWorkersOne(t *testing.T) {
	in := bulkCSV(500, 3)
	want, err := ReadCSV(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSVParallel(strings.NewReader(in), 1)
	if err != nil {
		t.Fatal(err)
	}
	checkSameInstance(t, got, want)
	if got.snap.Load() == nil {
		t.Fatal("workers=1: interned snapshot not pre-published")
	}
}

// TestReadCSVParallelMutateAfterLoad confirms a bulk-loaded instance
// behaves like an incrementally built one under later mutation: the
// first post-load Interned() call delta-chains off the bulk snapshot.
func TestReadCSVParallelMutateAfterLoad(t *testing.T) {
	in := bulkCSV(2000, 5)
	db, err := ReadCSVParallel(strings.NewReader(in), 4)
	if err != nil {
		t.Fatal(err)
	}
	root := db.Interned()
	db.AddFact("R", "c1", "c2")
	iv := db.Interned()
	if iv.Delta() == nil || iv.Delta().Parent != root {
		t.Fatalf("post-load mutation should delta-chain off the bulk snapshot")
	}
	seq, err := ReadCSV(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	seq.AddFact("R", "c1", "c2")
	checkSameInstance(t, db, seq)
}

var benchLoadSink *Instance

// BenchmarkReadCSV measures the sequential loader (ReuseRecord on), for
// allocs/op comparison against the parallel pipeline.
func BenchmarkReadCSV(b *testing.B) {
	data := []byte(bulkCSV(20000, 21))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db, err := ReadCSV(bytes.NewReader(data))
		if err != nil {
			b.Fatal(err)
		}
		benchLoadSink = db
	}
}

// TestReadCSVParallelQuotedNewlines: a quoted field may span lines.
// ReadCSV reads it (RFC 4180), and WriteCSV writes one for a constant
// that holds a newline, so the parallel loader must cut chunks and
// records only at newlines outside quotes, and count the lines a record
// spans. The round trip spans several reader chunks, so some chunk cuts
// fall next to multi-line fields.
func TestReadCSVParallelQuotedNewlines(t *testing.T) {
	small := "R,\"a\nb\",c\nR,c,d\nR,c,e\n"
	quirks := "# a comment's \" stays a comment\n" +
		"X,\"k\n# not a comment\",v\n" +
		"Y,\"p\r\nq\",\"r,\"\"s\"\"\"\r\n" + small
	src := New()
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 30000; i++ {
		k := fmt.Sprintf("k%d", rng.Intn(5000))
		v := fmt.Sprintf("v%d", rng.Intn(5000))
		switch i % 4 {
		case 0:
			v += "\nsecond line"
		case 1:
			k += "\n#x\n\"quoted\", too"
		case 2:
			v = "," + v + "\n\n" + v
		}
		src.AddFact([]string{"R", "S"}[i%2], k, v)
	}
	var roundTrip bytes.Buffer
	if err := src.WriteCSV(&roundTrip); err != nil {
		t.Fatal(err)
	}
	for _, in := range []string{small, quirks, roundTrip.String()} {
		want, err := ReadCSV(strings.NewReader(in))
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 4} {
			got, err := ReadCSVParallel(strings.NewReader(in), workers)
			if err != nil {
				t.Fatalf("workers=%d: %v", workers, err)
			}
			checkSameInstance(t, got, want)
		}
	}
	if back, _ := ReadCSV(strings.NewReader(roundTrip.String())); !back.Equal(src) {
		t.Fatalf("WriteCSV output read back as %d facts, want %d", back.Size(), src.Size())
	}
	// A bad record after a multi-line one is named by its own line.
	if _, err := ReadCSVParallel(strings.NewReader(small+"R,,d\n"), 2); err == nil || !strings.Contains(err.Error(), "line 5") {
		t.Fatalf("error %v, want one naming line 5", err)
	}
}
