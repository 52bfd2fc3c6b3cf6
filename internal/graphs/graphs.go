// Package graphs provides the directed-graph substrate used by the
// hardness reductions of Section 7: graph representation, reachability
// (the canonical NL-complete problem reduced FROM in Lemma 18), acyclic
// random graph generation, and topological utilities.
package graphs

import (
	"fmt"
	"math/rand"
	"sort"
)

// Digraph is a directed graph over string-named vertices.
type Digraph struct {
	adj  map[string][]string
	vset map[string]bool
}

// New returns an empty digraph.
func New() *Digraph {
	return &Digraph{adj: map[string][]string{}, vset: map[string]bool{}}
}

// AddVertex ensures v exists.
func (g *Digraph) AddVertex(v string) *Digraph {
	g.vset[v] = true
	return g
}

// AddEdge inserts the edge (a, b), creating vertices as needed.
func (g *Digraph) AddEdge(a, b string) *Digraph {
	g.AddVertex(a)
	g.AddVertex(b)
	g.adj[a] = append(g.adj[a], b)
	return g
}

// Vertices returns the vertices in sorted order.
func (g *Digraph) Vertices() []string {
	out := make([]string, 0, len(g.vset))
	for v := range g.vset {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// Edges returns all edges in deterministic order.
func (g *Digraph) Edges() [][2]string {
	var out [][2]string
	for _, a := range g.Vertices() {
		succ := append([]string(nil), g.adj[a]...)
		sort.Strings(succ)
		for _, b := range succ {
			out = append(out, [2]string{a, b})
		}
	}
	return out
}

// NumVertices returns the vertex count.
func (g *Digraph) NumVertices() int { return len(g.vset) }

// NumEdges returns the edge count.
func (g *Digraph) NumEdges() int {
	n := 0
	for _, s := range g.adj {
		n += len(s)
	}
	return n
}

// Reachable reports whether t is reachable from s (including s == t).
func (g *Digraph) Reachable(s, t string) bool {
	if s == t {
		return g.vset[s]
	}
	seen := map[string]bool{s: true}
	stack := []string{s}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range g.adj[v] {
			if w == t {
				return true
			}
			if !seen[w] {
				seen[w] = true
				stack = append(stack, w)
			}
		}
	}
	return false
}

// IsAcyclic reports whether the graph has no directed cycle.
func (g *Digraph) IsAcyclic() bool {
	state := map[string]int{} // 0 unvisited, 1 on stack, 2 done
	var visit func(v string) bool
	visit = func(v string) bool {
		state[v] = 1
		for _, w := range g.adj[v] {
			switch state[w] {
			case 1:
				return false
			case 0:
				if !visit(w) {
					return false
				}
			}
		}
		state[v] = 2
		return true
	}
	for v := range g.vset {
		if state[v] == 0 && !visit(v) {
			return false
		}
	}
	return true
}

// RandomDAG generates a random DAG with n vertices named v0..v(n-1)
// (edges only from lower to higher index) and the given edge
// probability.
func RandomDAG(rng *rand.Rand, n int, p float64) *Digraph {
	g := New()
	for i := 0; i < n; i++ {
		g.AddVertex(vname(i))
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < p {
				g.AddEdge(vname(i), vname(j))
			}
		}
	}
	return g
}

func vname(i int) string { return fmt.Sprintf("v%d", i) }
