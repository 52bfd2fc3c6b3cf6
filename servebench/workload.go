package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/url"
	"sort"
	"strings"

	"cqa"
	"cqa/internal/workload"
)

// opKind is the type of one scripted request.
type opKind uint8

const (
	opRegister opKind = iota // POST /instances/{name}, body = fact list
	opDrop                   // DELETE /instances/{name}
	opMutate                 // POST /instances/{name}/mutate
	opBatch                  // POST /instances/{name}/batch, one NDJSON line per word
	opQuery                  // GET /instances/{name}/query?q=word
)

// op is one request of a client script, rendered before set-up starts
// so that the timed phase only sends bytes and reads answers.
type op struct {
	kind opKind
	id   int    // request id, unique within the workload
	name string // instance name
	// words are indices into bench.words: the lines of a batch or the
	// single word of a REST query.
	words []int
	// body is the request body: the fact list of a registration, the
	// mutation JSON, or the NDJSON batch.
	body []byte
	path string // URL path (and query string) on the daemon
	// facts is the fact count of a registration body.
	facts int
	mut   cqa.Mutation // the mutation, for the in-process replays
	// want holds the expected decision per word; the reference fills it.
	want []bool
}

// decisions is the number of decisions the op carries.
func (o *op) decisions() int { return len(o.words) }

// script is the sequential request list of one client. Setup registers
// every instance the client owns and decides every word once on each;
// timed is the measured phase; probe (traced run only) adds one
// mutation and two decision rounds per instance, so that every tier has
// hit and repair samples on every workload.
type script struct {
	setup, timed, probe []op
}

// bench is one generated workload: its word pool and one script per
// client. Every instance is owned by exactly one client, so the
// decisions of a seed do not depend on how the clients interleave.
type bench struct {
	name    string
	words   []string
	queries []cqa.Query
	classes []cqa.Class
	clients []*script
}

// shape sizes a workload. stepsPerSecond converts --seconds into a fixed
// number of timed operations per client, so a seed always does the same
// work: the counters of two runs must agree exactly.
type shape struct {
	clients        int
	stepsPerSecond float64
	batchLines     int // warm-read: lines per timed batch
	// ranks size each client's instances: the rank-th instance of every
	// client has ranks[rank] facts and conflict rate (the rank also
	// orders warm-read's Zipf popularity). The rates sit on either side
	// of the rates where answers flip between seeds: a coNP no-instance
	// costs a hundred times a yes-instance, so a mid rate would make the
	// cost of a run depend on which answers its seed happened to draw.
	ranks []tier
}

// tier is the size and conflict rate of an instance rank.
type tier struct {
	facts int
	rate  float64
}

// instances is the number of instances a shape registers at set-up.
func (sh shape) instances() int { return sh.clients * len(sh.ranks) }

// Instance tiers. High-conflict instances are small: their coNP
// no-answers cost a SAT model replay linear in the instance, and at
// full size a few of them would dominate a run and its spread.
var (
	low8k  = tier{8000, 0.05}
	high2k = tier{2000, 0.6}
	low70k = tier{70000, 0.05}
)

// shapes are the full-size workloads the benchmark runs.
var shapes = map[string]shape{
	"warm-read": {clients: 2, stepsPerSecond: 135, batchLines: 64, ranks: []tier{low8k, low8k, low8k, low8k, high2k, high2k}},
	"churn":     {clients: 2, stepsPerSecond: 200, ranks: []tier{low8k, low8k, high2k}},
	"giant":     {clients: 1, stepsPerSecond: 25, ranks: []tier{low70k, low70k}},
}

// workloadNames lists the workloads in a fixed order.
var workloadNames = []string{"warm-read", "churn", "giant"}

// warmReadWords is warm-read's 16-word pool, four per class of the
// tetrachotomy (checked by cqa.Classify in generate).
var warmReadWords = []string{
	"RXRX", "RXY", "XYA", "RAR", // FO
	"RRX", "RRY", "XXA", "RRXR", // NL
	"RXRYRY", "RRXRX", "RRYRY", "XXAXA", // PTIME
	"ARRX", "RXXR", "XRRY", "AYYX", // coNP
}

// stepWords are the per-step batches of churn and giant, one word per
// class. Churn's second client decides its own four words. A tier memo
// belongs to a plan, so no memo is then shared between clients, and
// which ancestor snapshots stay resident does not depend on how the
// clients interleave: with shared words the NL tier's exit sub-solver,
// looked up only on some steps, lost ancestors to the other client's
// inserts in most runs, and the same-work check flagged them.
var stepWords = [][]string{{"RXRX", "RRX", "RXRYRY", "ARRX"}, {"RXY", "RRY", "RRYRY", "RXXR"}}

// giantWords are giant's per-step queries: the four of stepWords[0]
// plus a second PTIME word. On giant NL and FO decisions take microseconds
// to a millisecond and fixpoint and SAT ones several, so with four words
// the median request would sit on the boundary between the two groups
// and jump between them from round to round; with a fifth it is a
// partitioned fixpoint decision.
var giantWords = []string{"RXRX", "RRX", "RXRYRY", "RRXRX", "ARRX"}

// Mutation cadence: churn adds a fresh constant (a universe change, so
// every memoized tier cold-builds) every freshEvery-th step of an
// instance; giant replaces an instance by a freshly registered one every
// reregisterEvery-th step of it.
const (
	freshEvery      = 32
	reregisterEvery = 24
)

// newBench generates workload name for seed with timed phases sized for
// seconds.
func newBench(name string, seed int64, seconds float64) (*bench, error) {
	sh, ok := shapes[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
	}
	return generate(name, sh, seed, seconds)
}

// generate builds workload name in shape sh; the smoke test passes tiny
// shapes.
func generate(name string, sh shape, seed int64, seconds float64) (*bench, error) {
	// clientWords[c] are the indices into words that client c decides.
	var words []string
	clientWords := make([][]int, sh.clients)
	for c := range clientWords {
		switch name {
		case "warm-read":
			words = warmReadWords
			clientWords[c] = seq(0, len(words))
		case "giant":
			words = giantWords
			clientWords[c] = seq(0, len(words))
		default:
			clientWords[c] = seq(len(words), len(words)+len(stepWords[c]))
			words = append(words, stepWords[c]...)
		}
	}
	b := &bench{name: name, words: words}
	perClass := map[cqa.Class]int{}
	for _, w := range words {
		q, err := cqa.ParseQuery(w)
		if err != nil {
			return nil, err
		}
		b.queries = append(b.queries, q)
		c := cqa.Classify(q)
		b.classes = append(b.classes, c)
		perClass[c]++
	}
	if len(perClass) != 4 {
		return nil, fmt.Errorf("word pool of %s covers %d classes, want 4", name, len(perClass))
	}
	g := &generator{b: b, sh: sh, seed: seed, rng: rand.New(rand.NewSource(seed))}
	// Steps per client, a whole number per measurement round. A round
	// also holds whole cycles of the periodic steps, so that every round
	// does the same kind of work: a client visits its instances in turn,
	// and every freshEvery-th step of a churn instance adds a fresh
	// constant, every reregisterEvery-th step of a giant one replaces it.
	stride := 1
	switch name {
	case "churn":
		stride = len(sh.ranks) * freshEvery
	case "giant":
		stride = len(sh.ranks) * reregisterEvery
	}
	steps := rounds * stride * max(1, int(math.Round(sh.stepsPerSecond*seconds/float64(rounds*stride))))
	for c := 0; c < sh.clients; c++ {
		b.clients = append(b.clients, &script{})
	}
	// Instance i belongs to client i mod clients.
	var insts []*liveInstance
	for i := 0; i < sh.instances(); i++ {
		li := g.newInstance(fmt.Sprintf("%s-%02d", abbrev(name), i), i)
		insts = append(insts, li)
		s := b.clients[i%sh.clients]
		s.setup = append(s.setup, g.register(li))
	}
	for i, li := range insts {
		s, all := b.clients[i%sh.clients], clientWords[i%sh.clients]
		if name == "giant" {
			s.setup = append(s.setup, g.queries(li, all)...)
		} else {
			s.setup = append(s.setup, g.batch(li, all))
		}
	}
	for c, s := range b.clients {
		all := clientWords[c]
		var owned []*liveInstance
		for i := c; i < len(insts); i += sh.clients {
			owned = append(owned, insts[i])
		}
		switch name {
		case "warm-read":
			// Each of the rounds the timed phase is measured in gets
			// the exact Zipf share of batches per instance, in random
			// order, so rounds and seeds differ in order, not in mix.
			for r := 0; r < rounds; r++ {
				var order []int
				for rank, n := range zipfCounts(len(owned), steps/rounds) {
					for ; n > 0; n-- {
						order = append(order, rank)
					}
				}
				g.rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
				for _, rank := range order {
					lines := make([]int, sh.batchLines)
					for j := range lines {
						lines[j] = g.rng.Intn(len(words))
					}
					s.timed = append(s.timed, g.batch(owned[rank], lines))
				}
			}
		case "churn":
			for k := 0; k < steps; k++ {
				li := owned[k%len(owned)]
				s.timed = append(s.timed, g.mutate(li, li.steps%freshEvery == freshEvery-1), g.batch(li, all))
				li.steps++
			}
		case "giant":
			for k := 0; k < steps; k++ {
				slot := k % len(owned)
				li := owned[slot]
				if li.steps%reregisterEvery == reregisterEvery-1 {
					s.timed = append(s.timed, g.drop(li))
					next := g.newInstance(fmt.Sprintf("%s-r%d", li.base, li.gen+1), li.index+len(insts)*(li.gen+1))
					next.base, next.gen, next.steps = li.base, li.gen+1, li.steps
					li = next
					owned[slot] = li
					s.timed = append(s.timed, g.register(li))
				} else {
					s.timed = append(s.timed, g.mutate(li, false))
				}
				s.timed = append(s.timed, g.queries(li, all)...)
				li.steps++
			}
		}
		for _, li := range owned {
			s.probe = append(s.probe, g.mutate(li, false), g.batch(li, all), g.batch(li, all))
		}
	}
	return b, nil
}

// zipfExponent skews warm-read's instance popularity.
const zipfExponent = 1.2

// zipfCounts splits n requests over k ranks in Zipf proportions
// (largest remainder), so the counts are exact rather than sampled.
func zipfCounts(k, n int) []int {
	w := make([]float64, k)
	sum := 0.0
	for i := range w {
		w[i] = math.Pow(float64(i+1), -zipfExponent)
		sum += w[i]
	}
	counts := make([]int, k)
	rest := make([]int, k)
	left := n
	for i := range w {
		counts[i] = int(float64(n) * w[i] / sum)
		left -= counts[i]
		rest[i] = i
	}
	sort.Slice(rest, func(a, b int) bool {
		fa, fb := float64(n)*w[rest[a]]/sum, float64(n)*w[rest[b]]/sum
		return fa-math.Floor(fa) > fb-math.Floor(fb)
	})
	for i := 0; i < left; i++ {
		counts[rest[i]]++
	}
	return counts
}

func abbrev(name string) string {
	switch name {
	case "warm-read":
		return "wr"
	case "churn":
		return "ch"
	}
	return "gi"
}

// seq returns from, from+1, ..., to-1.
func seq(from, to int) []int {
	out := make([]int, 0, to-from)
	for i := from; i < to; i++ {
		out = append(out, i)
	}
	return out
}

// generator renders ops and tracks the fact state of every instance, so
// a mutation never removes an absent fact, never empties a block or
// drops a constant (which would change the universe), and never undoes
// the previous mutation exactly (which the instance layer collapses
// into its grandparent snapshot — a memo hit, not a new snapshot).
type generator struct {
	b    *bench
	sh   shape
	seed int64
	rng  *rand.Rand
	ids  int
}

// liveInstance is the generator's view of one named instance.
type liveInstance struct {
	name, base string
	index, gen int
	facts      int
	// cands are the facts mutations toggle: at most one per conflicting
	// block, each with a value constant that is also a block key, so
	// toggling never changes the constant or relation universe.
	cands   []cqa.Fact
	present []bool
	last    [2]int
	steps   int
	fresh   int
	body    []byte // the rendered registration body, until registered
}

// maxCandidates bounds the toggle pool per instance.
const maxCandidates = 512

func (g *generator) newInstance(name string, index int) *liveInstance {
	t := g.sh.ranks[index/g.sh.clients%len(g.sh.ranks)]
	db := workload.Random(workload.Config{
		Relations:    []string{"R", "X", "Y", "A"},
		Constants:    t.facts * 3 / 4,
		Facts:        t.facts,
		ConflictRate: t.rate,
		Seed:         g.seed*1_000_003 + int64(index),
	})
	li := &liveInstance{name: name, base: name, index: index, last: [2]int{-1, -1}}
	keys := map[string]bool{}
	for _, id := range db.Blocks() {
		keys[id.Key] = true
	}
	// Each candidate starts present or absent with even odds: random
	// toggles keep that distribution, so the instances do not drift
	// during a run and every round of it does the same kind of work.
	absent := map[cqa.Fact]bool{}
	for _, id := range db.ConflictingBlocks() {
		if len(li.cands) == maxCandidates {
			break
		}
		for _, v := range db.Block(id.Rel, id.Key) {
			if keys[v] {
				f := cqa.Fact{Rel: id.Rel, Key: id.Key, Val: v}
				in := g.rng.Intn(2) == 0
				li.cands = append(li.cands, f)
				li.present = append(li.present, in)
				absent[f] = !in
				break
			}
		}
	}
	var sb strings.Builder
	for _, f := range db.Facts() {
		if absent[f] {
			continue
		}
		if li.facts > 0 {
			sb.WriteByte(' ')
		}
		sb.WriteString(f.String())
		li.facts++
	}
	li.body = []byte(sb.String())
	return li
}

func (g *generator) nextID() int {
	g.ids++
	return g.ids
}

func (g *generator) register(li *liveInstance) op {
	o := op{kind: opRegister, id: g.nextID(), name: li.name, body: li.body, path: "/instances/" + li.name, facts: li.facts}
	li.body = nil
	return o
}

func (g *generator) drop(li *liveInstance) op {
	return op{kind: opDrop, id: g.nextID(), name: li.name, path: "/instances/" + li.name}
}

// batch renders an NDJSON batch of the given words against li.
func (g *generator) batch(li *liveInstance, words []int) op {
	var sb strings.Builder
	for _, w := range words {
		fmt.Fprintf(&sb, "{\"query\":%q}\n", g.b.words[w])
	}
	return op{kind: opBatch, id: g.nextID(), name: li.name, words: words, body: []byte(sb.String()), path: "/instances/" + li.name + "/batch"}
}

// queries renders one REST query per given word against li.
func (g *generator) queries(li *liveInstance, words []int) []op {
	out := make([]op, len(words))
	for i, w := range words {
		out[i] = op{kind: opQuery, id: g.nextID(), name: li.name, words: []int{w},
			path: "/instances/" + li.name + "/query?q=" + url.QueryEscape(g.b.words[w])}
	}
	return out
}

// mutate toggles two candidate facts of li (a pair other than the
// previous one) and, when fresh is set, adds a fact with a new constant.
func (g *generator) mutate(li *liveInstance, fresh bool) op {
	var mut cqa.Mutation
	if n := len(li.cands); n >= 3 {
		var a, b int
		for {
			a, b = g.rng.Intn(n), g.rng.Intn(n)
			if a > b {
				a, b = b, a
			}
			if a != b && [2]int{a, b} != li.last {
				break
			}
		}
		li.last = [2]int{a, b}
		for _, c := range []int{a, b} {
			if li.present[c] {
				mut.Remove = append(mut.Remove, li.cands[c])
			} else {
				mut.Add = append(mut.Add, li.cands[c])
			}
			li.present[c] = !li.present[c]
		}
	}
	if fresh {
		li.fresh++
		key := "c0"
		if len(li.cands) > 0 {
			key = li.cands[li.fresh%len(li.cands)].Key
		}
		mut.Add = append(mut.Add, cqa.Fact{Rel: "R", Key: key, Val: fmt.Sprintf("%s_f%d", li.name, li.fresh)})
	}
	body := struct {
		Add    []string `json:"add,omitempty"`
		Remove []string `json:"remove,omitempty"`
	}{}
	for _, f := range mut.Add {
		body.Add = append(body.Add, f.String())
	}
	for _, f := range mut.Remove {
		body.Remove = append(body.Remove, f.String())
	}
	data, _ := json.Marshal(body) // a struct of string slices always marshals
	return op{kind: opMutate, id: g.nextID(), name: li.name, body: data, mut: mut, path: "/instances/" + li.name + "/mutate"}
}

// allOps calls fn for every op of every client in phase order.
func (b *bench) allOps(fn func(*op)) {
	for _, s := range b.clients {
		for _, ph := range [][]op{s.setup, s.timed, s.probe} {
			for i := range ph {
				fn(&ph[i])
			}
		}
	}
}
