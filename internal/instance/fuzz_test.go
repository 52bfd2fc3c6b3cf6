package instance

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"regexp"
	"strings"
	"testing"
)

// factSeps are the bytes ParseFacts splits on.
const factSeps = " \t\n\v\f\r;"

// FuzzParseFacts parses arbitrary fact lists, the body of a
// registration request. ParseFacts must never panic; on success no
// relation, key or value may be empty or hold a separator, and
// rendering the facts with Fact.String and parsing them again must give
// an equal instance.
func FuzzParseFacts(f *testing.F) {
	for _, s := range []string{
		"R(0,1) R(1,2); R(1,3)\nX(3,4)",
		"R(a,b)\r\nR(b,c)\r\n",
		"R(a,b)\vS(b,c)\fT(c,d)",
		"R((a,b)) R(a,b)) R,)(a,b)",
		"R(a,b,c) R(a) (a,b) R(,b)",
		"Ab(0,1) A(0,1) b(1,2)",
		";;\t\t  ",
		"R(a, b) R(\xff,b)",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		db, err := ParseFacts(s)
		if err != nil {
			return
		}
		facts := db.Facts()
		rendered := make([]string, len(facts))
		for i, fc := range facts {
			for _, part := range []string{fc.Rel, fc.Key, fc.Val} {
				if part == "" || strings.ContainsAny(part, factSeps) {
					t.Fatalf("ParseFacts(%q) produced fact %#v with an empty or separator-holding part", s, fc)
				}
			}
			rendered[i] = fc.String()
		}
		back, err := ParseFacts(strings.Join(rendered, " "))
		if err != nil {
			t.Fatalf("re-parsing the rendering of ParseFacts(%q): %v", s, err)
		}
		if !back.Equal(db) {
			t.Fatalf("ParseFacts(%q) = %s, but its rendering re-parses as %s", s, db, back)
		}
	})
}

// FuzzReadCSV loads arbitrary bytes with ReadCSV and with
// ReadCSVParallel on two workers. Either both succeed with the same
// facts and the same interned snapshot, or both fail and name the same
// line first: ReadCSV's error names the line its bad record starts on
// before any other line.
func FuzzReadCSV(f *testing.F) {
	for _, s := range []string{
		"# header comment\r\nR,a,b\r\n\n  R , a , c\nX,\"k,1\",\"va\"\"l\"\n# mid comment\nY,a,a\nX,last,row",
		"R,\"a\nb\",c\nR,c,d\nR,c,e\n",
		"R,a,b\nR,a\n",
		"R,a,b\nR,,b\n",
		"R,a,b\nR,\"a,b\n",
		"R,a\"b,c\nR,c,d\n",
		" # x\nR,a,b\n",
	} {
		f.Add(s)
	}
	lineRE := regexp.MustCompile(`line (\d+)`)
	firstLine := func(err error) string {
		if m := lineRE.FindStringSubmatch(err.Error()); m != nil {
			return m[1]
		}
		return "none"
	}
	f.Fuzz(func(t *testing.T, s string) {
		want, werr := ReadCSV(strings.NewReader(s))
		got, gerr := ReadCSVParallel(strings.NewReader(s), 2)
		switch {
		case werr == nil && gerr == nil:
			checkSameInstance(t, got, want)
		case werr != nil && gerr != nil:
			if wl, gl := firstLine(werr), firstLine(gerr); wl != gl {
				t.Fatalf("on %q ReadCSV names line %s first (%v), ReadCSVParallel line %s (%v)", s, wl, werr, gl, gerr)
			}
		default:
			t.Fatalf("on %q ReadCSV: %v, ReadCSVParallel: %v", s, werr, gerr)
		}
	})
}

// FuzzDeltaIntern drives one instance through adds and removes over two
// relations and six constants, publishing a snapshot after every step.
// Most steps stay inside the universe, so the snapshot is a delta child
// of the previous one; an occasional add of a fresh constant changes the
// universe and restarts the lineage. Every snapshot must equal a
// from-scratch build of the same facts, inserted in an order shuffled
// by a seed drawn from the input, and every block that differs between
// a delta child and its parent must be in the child's Touched set.
//
// Each step consumes two bytes: the first picks the relation (bit 0),
// the key (bits 1–3, mod 6) and, from 0xf0 up, an out-of-universe add;
// the second picks the value (mod 6). A fact already present is
// removed, any other is added.
func FuzzDeltaIntern(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 0, 1})
	f.Add([]byte{0x02, 0x00, 0x02, 0x00, 0xf1, 0x03, 0x02, 0x00})
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 16; i++ {
		in := make([]byte, 32+rng.Intn(96))
		rng.Read(in)
		f.Add(in)
	}
	rels := []string{"R", "S"}
	consts := []string{"a", "b", "c", "d", "e", "f"}
	f.Fuzz(func(t *testing.T, data []byte) {
		db := New()
		for i, k := range consts {
			for _, r := range rels {
				db.AddFact(r, k, consts[(i+1)%len(consts)])
			}
		}
		db.Interned()
		h := fnv.New64a()
		h.Write(data)
		seed := int64(h.Sum64())
		fresh := 0
		for ; len(data) >= 2; data = data[2:] {
			b0, b1 := data[0], data[1]
			fc := Fact{Rel: rels[b0&1], Key: consts[int(b0>>1&7)%len(consts)], Val: consts[int(b1)%len(consts)]}
			switch {
			case b0 >= 0xf0:
				fresh++
				fc.Val = fmt.Sprintf("n%d", fresh)
				db.Add(fc)
			case db.Contains(fc):
				db.Remove(fc)
			default:
				db.Add(fc)
			}
			iv := db.Interned()
			seed++
			sameInterned(t, iv, reintern(db, seed))
			if d := iv.Delta(); d != nil {
				checkTouched(t, d.Parent, iv, d.Touched)
			}
		}
	})
}

// checkTouched asserts that every block differing between parent and
// child, a delta child sharing parent's id tables, is in touched.
func checkTouched(t *testing.T, parent, child *Interned, touched []BlockRef) {
	t.Helper()
	in := make(map[BlockRef]bool, len(touched))
	for _, ref := range touched {
		in[ref] = true
	}
	blocks := func(iv *Interned) map[BlockRef]string {
		m := map[BlockRef]string{}
		for rid := 0; rid < iv.NumRels(); rid++ {
			for _, bl := range iv.RelBlocks(int32(rid)) {
				m[BlockRef{int32(rid), bl.Key}] = fmt.Sprint(bl.Vals)
			}
		}
		return m
	}
	pb, cb := blocks(parent), blocks(child)
	for ref, vals := range cb {
		if pb[ref] != vals && !in[ref] {
			t.Fatalf("block %v changed from %q to %q but is not in Touched %v", ref, pb[ref], vals, touched)
		}
	}
	for ref, vals := range pb {
		if _, ok := cb[ref]; !ok && !in[ref] {
			t.Fatalf("block %v (%q) was emptied but is not in Touched %v", ref, vals, touched)
		}
	}
}
