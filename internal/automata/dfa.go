package automata

import (
	"fmt"
	"sort"
	"strings"

	"cqa/internal/words"
)

// DFA is a deterministic finite automaton over relation-name symbols.
// Missing transitions go to an implicit dead (rejecting, absorbing)
// state.
type DFA struct {
	Alphabet []string
	Trans    []map[string]int // Trans[s][sym] = successor state
	Accept   []bool
	Start    int
}

// NumStates returns the number of explicit states.
func (d *DFA) NumStates() int { return len(d.Trans) }

// AcceptsWord reports whether d accepts w.
func (d *DFA) AcceptsWord(w words.Word) bool {
	s := d.Start
	for _, sym := range w {
		t, ok := d.Trans[s][sym]
		if !ok {
			return false
		}
		s = t
	}
	return d.Accept[s]
}

// IsEmpty reports whether the accepted language is empty.
func (d *DFA) IsEmpty() bool {
	seen := make([]bool, len(d.Trans))
	stack := []int{d.Start}
	seen[d.Start] = true
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if d.Accept[s] {
			return false
		}
		for _, t := range d.Trans[s] {
			if !seen[t] {
				seen[t] = true
				stack = append(stack, t)
			}
		}
	}
	return true
}

// AcceptedWords enumerates accepted words of length <= maxLen in
// length-lexicographic order.
func (d *DFA) AcceptedWords(maxLen int) []words.Word {
	alphabet := append([]string(nil), d.Alphabet...)
	sort.Strings(alphabet)
	var out []words.Word
	type item struct {
		state int
		word  words.Word
	}
	frontier := []item{{d.Start, words.Word{}}}
	for depth := 0; depth <= maxLen; depth++ {
		var next []item
		for _, it := range frontier {
			if d.Accept[it.state] {
				out = append(out, it.word)
			}
			if depth == maxLen {
				continue
			}
			for _, sym := range alphabet {
				if t, ok := d.Trans[it.state][sym]; ok {
					w := append(it.word.Clone(), sym)
					next = append(next, item{t, w})
				}
			}
		}
		frontier = next
	}
	return out
}

// Equal reports whether d and o accept the same language. Implemented as
// a breadth-first bisimulation check over the product automaton with
// implicit dead states (Hopcroft–Karp style without union-find; state
// spaces here are small).
func (d *DFA) Equal(o *DFA) bool {
	alpha := map[string]bool{}
	for _, s := range d.Alphabet {
		alpha[s] = true
	}
	for _, s := range o.Alphabet {
		alpha[s] = true
	}
	var alphabet []string
	for s := range alpha {
		alphabet = append(alphabet, s)
	}
	sort.Strings(alphabet)

	type pair struct{ a, b int } // -1 encodes the dead state
	accept := func(m *DFA, s int) bool { return s >= 0 && m.Accept[s] }
	step := func(m *DFA, s int, sym string) int {
		if s < 0 {
			return -1
		}
		if t, ok := m.Trans[s][sym]; ok {
			return t
		}
		return -1
	}
	seen := map[pair]bool{}
	queue := []pair{{d.Start, o.Start}}
	seen[queue[0]] = true
	for len(queue) > 0 {
		p := queue[0]
		queue = queue[1:]
		if accept(d, p.a) != accept(o, p.b) {
			return false
		}
		if p.a < 0 && p.b < 0 {
			continue
		}
		for _, sym := range alphabet {
			np := pair{step(d, p.a, sym), step(o, p.b, sym)}
			if !seen[np] {
				seen[np] = true
				queue = append(queue, np)
			}
		}
	}
	return true
}

// Intersect returns a DFA for the intersection of the two languages.
func (d *DFA) Intersect(o *DFA) *DFA {
	alpha := map[string]bool{}
	for _, s := range d.Alphabet {
		alpha[s] = true
	}
	for _, s := range o.Alphabet {
		alpha[s] = true
	}
	var alphabet []string
	for s := range alpha {
		alphabet = append(alphabet, s)
	}
	sort.Strings(alphabet)

	type pair struct{ a, b int }
	out := &DFA{Alphabet: alphabet}
	index := map[pair]int{}
	var states []pair
	add := func(p pair) int {
		if id, ok := index[p]; ok {
			return id
		}
		id := len(states)
		index[p] = id
		states = append(states, p)
		out.Trans = append(out.Trans, map[string]int{})
		out.Accept = append(out.Accept, d.Accept[p.a] && o.Accept[p.b])
		return id
	}
	out.Start = add(pair{d.Start, o.Start})
	for work := []int{out.Start}; len(work) > 0; {
		id := work[0]
		work = work[1:]
		p := states[id]
		for _, sym := range alphabet {
			ta, oka := d.Trans[p.a][sym]
			tb, okb := o.Trans[p.b][sym]
			if !oka || !okb {
				continue
			}
			np := pair{ta, tb}
			before := len(states)
			nid := add(np)
			out.Trans[id][sym] = nid
			if nid == before {
				work = append(work, nid)
			}
		}
	}
	return out
}

// Complement returns a total DFA accepting the complement of d's language
// with respect to alphabet.
func (d *DFA) Complement(alphabet []string) *DFA {
	n := len(d.Trans)
	out := &DFA{
		Alphabet: append([]string(nil), alphabet...),
		Trans:    make([]map[string]int, n+1),
		Accept:   make([]bool, n+1),
		Start:    d.Start,
	}
	dead := n
	for s := 0; s <= n; s++ {
		out.Trans[s] = map[string]int{}
		for _, sym := range alphabet {
			t := dead
			if s < n {
				if u, ok := d.Trans[s][sym]; ok {
					t = u
				}
			}
			out.Trans[s][sym] = t
		}
		if s == dead {
			out.Accept[s] = true
		} else {
			out.Accept[s] = !d.Accept[s]
		}
	}
	return out
}

// DOT renders the DFA in Graphviz format.
func (d *DFA) DOT() string {
	var b strings.Builder
	b.WriteString("digraph dfa {\n  rankdir=LR;\n  node [shape=circle];\n")
	for s := 0; s < len(d.Trans); s++ {
		if d.Accept[s] {
			fmt.Fprintf(&b, "  %d [shape=doublecircle];\n", s)
		}
	}
	fmt.Fprintf(&b, "  start [shape=point];\n  start -> %d;\n", d.Start)
	for s, m := range d.Trans {
		syms := make([]string, 0, len(m))
		for sym := range m {
			syms = append(syms, sym)
		}
		sort.Strings(syms)
		for _, sym := range syms {
			fmt.Fprintf(&b, "  %d -> %d [label=%q];\n", s, m[sym], sym)
		}
	}
	b.WriteString("}\n")
	return b.String()
}
