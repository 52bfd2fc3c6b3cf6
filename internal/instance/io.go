package instance

import (
	"encoding/csv"
	"fmt"
	"io"
	"strings"
)

// WriteCSV writes db as CSV rows "rel,key,val" in deterministic order.
func (db *Instance) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	for _, f := range db.Facts() {
		if err := cw.Write([]string{f.Rel, f.Key, f.Val}); err != nil {
			return fmt.Errorf("instance: write csv: %w", err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV reads an instance from CSV rows "rel,key,val". Blank lines
// and lines starting with '#' are skipped. Rows are RFC-4180 CSV, so a
// quoted field may contain commas or quotes — everything WriteCSV
// emits reads back verbatim — and fields are trimmed of surrounding
// whitespace after parsing.
func ReadCSV(r io.Reader) (*Instance, error) {
	db := New()
	cr := csv.NewReader(r)
	cr.Comment = '#'
	cr.FieldsPerRecord = 3
	cr.TrimLeadingSpace = true
	// Records are consumed within the iteration, so the reader may reuse
	// its field slice — bulk loads stop allocating one []string per fact.
	cr.ReuseRecord = true
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			return db, nil
		}
		if err != nil {
			return nil, fmt.Errorf("instance: read csv: %w", err)
		}
		line, _ := cr.FieldPos(0)
		rel := strings.TrimSpace(rec[0])
		key := strings.TrimSpace(rec[1])
		val := strings.TrimSpace(rec[2])
		if rel == "" || key == "" || val == "" {
			return nil, fmt.Errorf("instance: line %d: empty field in %q", line, strings.Join(rec, ","))
		}
		db.AddFact(rel, key, val)
	}
}

// ParseFact parses one fact token of the form R(a,b).
func ParseFact(tok string) (Fact, error) {
	open := strings.IndexByte(tok, '(')
	if open <= 0 || !strings.HasSuffix(tok, ")") {
		return Fact{}, fmt.Errorf("instance: bad fact %q", tok)
	}
	rel := tok[:open]
	inner := tok[open+1 : len(tok)-1]
	parts := strings.Split(inner, ",")
	if len(parts) != 2 || parts[0] == "" || parts[1] == "" {
		return Fact{}, fmt.Errorf("instance: bad fact %q", tok)
	}
	return Fact{Rel: rel, Key: parts[0], Val: parts[1]}, nil
}

// ParseFacts parses a compact fact-list syntax used pervasively in tests
// and examples: facts separated by ASCII whitespace (CRLF line ends
// included) or semicolons, each of the form R(a,b). Example:
// "R(0,1) R(1,2) R(1,3) X(3,4)".
func ParseFacts(s string) (*Instance, error) {
	db := New()
	tokens := strings.FieldsFunc(s, isFactSep)
	for _, tok := range tokens {
		if tok == "" {
			continue
		}
		f, err := ParseFact(tok)
		if err != nil {
			return nil, err
		}
		db.Add(f)
	}
	return db, nil
}

// isFactSep reports whether r separates facts in ParseFacts: an ASCII
// whitespace byte or a semicolon.
func isFactSep(r rune) bool {
	switch r {
	case ' ', '\t', '\n', '\v', '\f', '\r', ';':
		return true
	}
	return false
}

// MustParseFacts is ParseFacts that panics on error.
func MustParseFacts(s string) *Instance {
	db, err := ParseFacts(s)
	if err != nil {
		panic(err)
	}
	return db
}

// DOT renders the instance as a Graphviz digraph: a fact R(a,b) is an
// edge a -> b labeled R. Facts in conflicting blocks are drawn dashed.
func (db *Instance) DOT() string {
	var b strings.Builder
	b.WriteString("digraph db {\n  rankdir=LR;\n")
	for _, f := range db.Facts() {
		style := ""
		if len(db.Block(f.Rel, f.Key)) > 1 {
			style = ", style=dashed"
		}
		fmt.Fprintf(&b, "  %q -> %q [label=%q%s];\n", f.Key, f.Val, f.Rel, style)
	}
	b.WriteString("}\n")
	return b.String()
}
