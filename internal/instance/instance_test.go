package instance

import (
	"bytes"
	"reflect"
	"strings"
	"sync"
	"testing"

	"cqa/internal/words"
)

func TestAddAndBlocks(t *testing.T) {
	db := New()
	db.AddFact("R", "a", "b").AddFact("R", "a", "c").AddFact("S", "a", "b")
	if db.Size() != 3 {
		t.Fatalf("Size = %d", db.Size())
	}
	if got := db.Block("R", "a"); !reflect.DeepEqual(got, []string{"b", "c"}) {
		t.Errorf("Block(R,a) = %v", got)
	}
	if db.IsConsistent() {
		t.Error("db has a 2-fact block; not consistent")
	}
	if got := db.ConflictingBlocks(); len(got) != 1 || got[0] != (BlockID{"R", "a"}) {
		t.Errorf("ConflictingBlocks = %v", got)
	}
	if got := db.Adom(); !reflect.DeepEqual(got, []string{"a", "b", "c"}) {
		t.Errorf("Adom = %v", got)
	}
	if got := db.Relations(); !reflect.DeepEqual(got, []string{"R", "S"}) {
		t.Errorf("Relations = %v", got)
	}
}

func TestAddIdempotent(t *testing.T) {
	db := New()
	db.AddFact("R", "a", "b").AddFact("R", "a", "b")
	if db.Size() != 1 {
		t.Errorf("Size = %d, want 1", db.Size())
	}
	if got := db.Block("R", "a"); !reflect.DeepEqual(got, []string{"b"}) {
		t.Errorf("Block = %v", got)
	}
}

func TestRemove(t *testing.T) {
	db := MustParseFacts("R(a,b) R(a,c) S(b,c)")
	db.Remove(Fact{"R", "a", "b"})
	if db.Contains(Fact{"R", "a", "b"}) || db.Size() != 2 {
		t.Error("Remove failed")
	}
	if !db.IsConsistent() {
		t.Error("should be consistent after removal")
	}
	db.Remove(Fact{"R", "a", "c"})
	if db.HasBlock("R", "a") {
		t.Error("block should be gone")
	}
	if got := db.Adom(); !reflect.DeepEqual(got, []string{"b", "c"}) {
		t.Errorf("Adom after remove = %v", got)
	}
	// Removing a missing fact is a no-op.
	db.Remove(Fact{"Z", "q", "q"})
	if db.Size() != 1 {
		t.Error("no-op remove changed size")
	}
}

func TestKeyEqual(t *testing.T) {
	f := Fact{"R", "a", "b"}
	if !f.KeyEqual(Fact{"R", "a", "c"}) {
		t.Error("same rel+key should be key-equal")
	}
	if f.KeyEqual(Fact{"S", "a", "b"}) || f.KeyEqual(Fact{"R", "b", "b"}) {
		t.Error("different rel or key should not be key-equal")
	}
}

func TestParseFactsAndString(t *testing.T) {
	db := MustParseFacts("R(0,1) R(1,2); R(1,3)\nX(3,4)")
	if db.Size() != 4 {
		t.Fatalf("Size = %d", db.Size())
	}
	want := "{R(0,1), R(1,2), R(1,3), X(3,4)}"
	if db.String() != want {
		t.Errorf("String = %s, want %s", db.String(), want)
	}
	// Any ASCII whitespace separates facts: a body written with CRLF
	// line ends parses like one written with LF.
	crlf := MustParseFacts("R(0,1)\r\nR(1,2);\vR(1,3)\fX(3,4)\r\n")
	if !crlf.Equal(db) {
		t.Errorf("CRLF/VT/FF-separated facts parsed as %s, want %s", crlf, db)
	}
	for _, bad := range []string{"R(a)", "Rab", "R(a,b", "(a,b)", "R(,b)"} {
		if _, err := ParseFacts(bad); err == nil {
			t.Errorf("ParseFacts(%q): expected error", bad)
		}
	}
}

func TestCSVRoundTrip(t *testing.T) {
	db := MustParseFacts("R(a,b) R(a,c) S(b,x)")
	var buf bytes.Buffer
	if err := db.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !db.Equal(back) {
		t.Errorf("round trip mismatch: %s vs %s", db, back)
	}
}

func TestReadCSVSkipsComments(t *testing.T) {
	in := "# comment\nR,a,b\n\nS, b , c\n"
	db, err := ReadCSV(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if db.Size() != 2 || !db.Contains(Fact{"S", "b", "c"}) {
		t.Errorf("got %s", db)
	}
	if _, err := ReadCSV(strings.NewReader("R,a\n")); err == nil {
		t.Error("expected error for short row")
	}
	if _, err := ReadCSV(strings.NewReader("R,,b\n")); err == nil {
		t.Error("expected error for empty field")
	}
}

func TestRepairChecks(t *testing.T) {
	db := MustParseFacts("R(a,b) R(a,c) S(b,x)")
	r1 := MustParseFacts("R(a,b) S(b,x)")
	r2 := MustParseFacts("R(a,c) S(b,x)")
	bad1 := MustParseFacts("R(a,b)")               // misses block S(b,*)
	bad2 := MustParseFacts("R(a,b) R(a,c) S(b,x)") // inconsistent
	bad3 := MustParseFacts("R(a,z) S(b,x)")        // not a subset
	if !r1.IsRepairOf(db) || !r2.IsRepairOf(db) {
		t.Error("r1, r2 are repairs")
	}
	if bad1.IsRepairOf(db) || bad2.IsRepairOf(db) || bad3.IsRepairOf(db) {
		t.Error("bad repairs accepted")
	}
}

func TestStartsOfTraceFigure2(t *testing.T) {
	// Figure 2 instance; see Example 4. r1 contains R(1,2), r2 contains
	// R(1,3). The only RRX-trace path in r1 starts at 1; in r2 at 0.
	r1 := MustParseFacts("R(0,1) R(1,2) R(2,3) X(3,4)")
	r2 := MustParseFacts("R(0,1) R(1,3) R(2,3) X(3,4)")
	q := words.MustParse("RRX")
	if got := keys(r1.StartsOfTrace(q)); !reflect.DeepEqual(got, []string{"1"}) {
		t.Errorf("r1 starts = %v", got)
	}
	if got := keys(r2.StartsOfTrace(q)); !reflect.DeepEqual(got, []string{"0"}) {
		t.Errorf("r2 starts = %v", got)
	}
	if !r1.Satisfies(q) || !r2.Satisfies(q) {
		t.Error("both repairs satisfy RRX")
	}
	if r1.Satisfies(words.MustParse("RRXX")) {
		t.Error("RRXX not satisfied")
	}
	if !r1.Satisfies(words.Word{}) {
		t.Error("empty query is always satisfied")
	}
}

func TestFindWalk(t *testing.T) {
	db := MustParseFacts("R(0,1) R(1,2) R(2,3) X(3,4)")
	w := db.FindWalk("1", words.MustParse("RRX"))
	want := []Fact{{"R", "1", "2"}, {"R", "2", "3"}, {"X", "3", "4"}}
	if !reflect.DeepEqual(w, want) {
		t.Errorf("FindWalk = %v", w)
	}
	if db.FindWalk("0", words.MustParse("RRX")) != nil {
		t.Error("no RRX walk from 0 in this repair")
	}
	if got := db.FindWalk("0", words.Word{}); len(got) != 0 {
		t.Error("empty trace walk should be empty")
	}
}

func TestWalkCanRepeatFacts(t *testing.T) {
	// A path may traverse the same fact twice (cycle).
	db := MustParseFacts("R(a,b) R(b,a) X(a,z)")
	q := words.MustParse("RRRRX")
	if !db.HasTraceFrom("a", q) {
		t.Error("cyclic walk should satisfy RRRRX from a")
	}
	w := db.FindWalk("a", q)
	if len(w) != 5 {
		t.Fatalf("walk = %v", w)
	}
}

func TestConsistentWalk(t *testing.T) {
	// Example 7: db = {R(c,d), S(d,c), R(c,e), T(e,f)}.
	db := MustParseFacts("R(c,d) S(d,c) R(c,e) T(e,f)")
	// db |= c -RS->-> c and c -RT->-> f but NOT c -RSRT->-> f:
	// the two R-steps from c would need different facts of block R(c,*).
	if !db.ConsistentWalkBetween("c", "c", words.MustParse("RS")) {
		t.Error("c -RS->-> c should hold")
	}
	if !db.ConsistentWalkBetween("c", "f", words.MustParse("RT")) {
		t.Error("c -RT->-> f should hold")
	}
	if db.ConsistentWalkBetween("c", "f", words.MustParse("RSRT")) {
		t.Error("c -RSRT->-> f must fail (needs two distinct key-equal R-facts)")
	}
	if db.HasConsistentWalk("c", words.MustParse("RSRT")) {
		t.Error("no consistent RSRT walk from c at all")
	}
	// The inconsistent walk does exist.
	if !db.HasTraceFrom("c", words.MustParse("RSRT")) {
		t.Error("the (inconsistent) RSRT path exists")
	}
}

func TestWalkEnds(t *testing.T) {
	db := MustParseFacts("R(a,b) R(a,c) X(b,z) X(c,z)")
	got := keys(db.WalkEnds("a", words.MustParse("RX")))
	if !reflect.DeepEqual(got, []string{"z"}) {
		t.Errorf("WalkEnds = %v", got)
	}
	got = keys(db.WalkEnds("a", words.MustParse("R")))
	if !reflect.DeepEqual(got, []string{"b", "c"}) {
		t.Errorf("WalkEnds = %v", got)
	}
}

func TestCloneEqualSubset(t *testing.T) {
	db := MustParseFacts("R(a,b) R(a,c)")
	c := db.Clone()
	if !db.Equal(c) {
		t.Error("clone not equal")
	}
	c.AddFact("Z", "1", "2")
	if db.Equal(c) || db.Contains(Fact{"Z", "1", "2"}) {
		t.Error("clone not independent")
	}
	if !db.SubsetOf(c) || c.SubsetOf(db) {
		t.Error("SubsetOf wrong")
	}
}

func TestDOT(t *testing.T) {
	db := MustParseFacts("R(a,b) R(a,c) S(b,c)")
	dot := db.DOT()
	if !strings.Contains(dot, `"a" -> "b" [label="R", style=dashed]`) {
		t.Errorf("conflicting fact should be dashed:\n%s", dot)
	}
	if !strings.Contains(dot, `"b" -> "c" [label="S"]`) {
		t.Errorf("consistent fact should be solid:\n%s", dot)
	}
}

func keys(m map[string]bool) []string {
	var out []string
	for k, v := range m {
		if v {
			out = append(out, k)
		}
	}
	// small, deterministic
	for i := 0; i < len(out); i++ {
		for j := i + 1; j < len(out); j++ {
			if out[j] < out[i] {
				out[i], out[j] = out[j], out[i]
			}
		}
	}
	return out
}

func TestInternedView(t *testing.T) {
	db := MustParseFacts("R(b,a) R(b,c) S(a,b) R(a,c)")
	iv := db.Interned()
	// Ids follow sorted order: consts a=0, b=1, c=2; rels R=0, S=1.
	if got := iv.Consts(); !reflect.DeepEqual(got, []string{"a", "b", "c"}) {
		t.Fatalf("Consts = %v", got)
	}
	if iv.NumConsts() != 3 || iv.NumRels() != 2 || iv.NumFacts() != 4 {
		t.Fatalf("sizes: %d consts %d rels %d facts", iv.NumConsts(), iv.NumRels(), iv.NumFacts())
	}
	if id, ok := iv.ConstID("b"); !ok || id != 1 || iv.Const(1) != "b" {
		t.Errorf("ConstID(b) = %d,%v", id, ok)
	}
	if _, ok := iv.ConstID("zz"); ok {
		t.Error("ConstID of absent constant")
	}
	rid, ok := iv.RelID("R")
	if !ok || iv.Rel(rid) != "R" {
		t.Fatalf("RelID(R) = %d,%v", rid, ok)
	}
	// Blocks of R in ascending key-id order: R(a,*)={c}, R(b,*)={a,c}.
	blocks := iv.RelBlocks(rid)
	want := []InternedBlock{{Key: 0, Vals: []int32{2}}, {Key: 1, Vals: []int32{0, 2}}}
	if !reflect.DeepEqual(blocks, want) {
		t.Errorf("RelBlocks(R) = %v, want %v", blocks, want)
	}
}

func TestInternedMemoizedAndInvalidated(t *testing.T) {
	db := MustParseFacts("R(a,b)")
	iv1 := db.Interned()
	if iv2 := db.Interned(); iv1 != iv2 {
		t.Error("Interned not memoized across calls")
	}
	db.AddFact("R", "a", "c")
	iv3 := db.Interned()
	if iv3 == iv1 {
		t.Error("mutation did not invalidate the interned snapshot")
	}
	if iv1.NumFacts() != 1 || iv3.NumFacts() != 2 {
		t.Errorf("old snapshot mutated: %d / %d facts", iv1.NumFacts(), iv3.NumFacts())
	}
	db.Remove(Fact{"R", "a", "c"})
	if iv4 := db.Interned(); iv4 == iv3 || iv4.NumFacts() != 1 {
		t.Error("Remove did not invalidate the interned snapshot")
	}
}

// TestInternedConcurrentReaders exercises the copy-on-write snapshot
// under -race: many goroutines intern and read concurrently.
func TestInternedConcurrentReaders(t *testing.T) {
	db := MustParseFacts("R(a,b) R(a,c) S(b,c) R(c,a)")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				iv := db.Interned()
				if iv.NumConsts() != 3 || iv.NumFacts() != 4 {
					t.Error("bad interned view")
					return
				}
				if id, ok := iv.ConstID("c"); !ok || iv.Const(id) != "c" {
					t.Error("bad const roundtrip")
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestInternedConvergesUnderRace: concurrent first-time Interned calls
// on one unchanged instance must all return the SAME pointer — the
// publish CAS adopts the first published build, so the per-snapshot
// memos in the solver tiers never see duplicate keys for one instance
// state (run with -race).
func TestInternedConvergesUnderRace(t *testing.T) {
	for round := 0; round < 50; round++ {
		db := MustParseFacts("R(a,b) R(a,c) R(b,c) X(c,d)")
		const readers = 8
		got := make([]*Interned, readers)
		var wg sync.WaitGroup
		for g := 0; g < readers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				got[g] = db.Interned()
			}(g)
		}
		wg.Wait()
		for g := 1; g < readers; g++ {
			if got[g] != got[0] {
				t.Fatalf("round %d: readers %d and 0 hold distinct interned snapshots", round, g)
			}
		}
	}
}

// TestCSVRoundTripQuotedFields: WriteCSV quotes values containing
// commas or quotes (RFC 4180); ReadCSV must read its own output back
// verbatim.
func TestCSVRoundTripQuotedFields(t *testing.T) {
	db := New()
	db.AddFact("R", "a", `x,y`)
	db.AddFact("R", `k"ey`, "v")
	db.AddFact("S", "a", "plain")
	var buf bytes.Buffer
	if err := db.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !db.Equal(back) {
		t.Errorf("round trip mismatch: %s vs %s", db, back)
	}
}
