// Package instance implements database instances over binary relations
// with primary keys on the first position (Section 2 of the paper): facts,
// key-equal facts, blocks, consistency, repairs, the active domain, and
// the directed edge-colored graph view of an instance.
//
// # Snapshot lineage and the invalidation contract
//
// An Instance publishes one thing: the dense-id Interned snapshot of its
// current state, which the solver tiers evaluate on and the sorted
// accessor views (Adom, Relations, Blocks, Facts) are read out of. It
// is built on first read, held in one atomic pointer, and dropped by
// every mutation. The contract the tiers rely on:
//
//   - Pointer identity of an *Interned names one immutable instance
//     state. Two loads that return the same pointer saw the same facts;
//     a mutation can never be observed through an old pointer.
//   - Concurrent first readers converge on ONE pointer per state (the
//     publish CAS is first-wins), so a per-snapshot memo keyed by the
//     pointer builds each artifact at most once per state.
//   - Mutation IS invalidation: solver memos keyed by the snapshot
//     pointer need no invalidation protocol — a stale snapshot simply
//     can never be looked up again, and ages out of its memo's LRU.
//
// On top of identity, snapshots form a structural *lineage*: when a
// mutation touches only blocks over the existing constant and relation
// universe, the next Interned build is a copy-on-write delta of the
// previous snapshot — the const/relation id tables are shared (ids are
// stable along the lineage), only the touched relations' block lists
// are re-interned, and the child records a Delta{Parent, Touched}
// describing exactly which blocks differ. Memos use the lineage for
// *repair*: on a miss for snapshot S whose ancestor's artifact is still
// resident, a tier patches the ancestor artifact along the accumulated
// touched set instead of cold-building (memo.LRU.GetOrRepair). A
// mutation that changes the universe (new constant or relation, or one
// dropped by Remove), piles up too many dirty blocks, or extends the
// lineage past MaxLineageDepth starts a fresh root instead — repair is
// an optimization, never a correctness requirement, and a bounded
// lineage keeps at most MaxLineageDepth old snapshots reachable.
package instance

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync/atomic"

	"cqa/internal/bitset"
	"cqa/internal/faultinject"
	"cqa/internal/par"
	"cqa/internal/words"
)

// Fact is a fact R(key, val) of a binary relation R whose first position
// is the primary key.
type Fact struct {
	Rel string // relation name
	Key string // primary-key constant
	Val string // non-key constant
}

// String renders the fact as R(a,b).
func (f Fact) String() string { return fmt.Sprintf("%s(%s,%s)", f.Rel, f.Key, f.Val) }

// KeyEqual reports whether f and g are key-equal: same relation name and
// same primary-key value (Section 2).
func (f Fact) KeyEqual(g Fact) bool { return f.Rel == g.Rel && f.Key == g.Key }

// BlockID identifies a block: the maximal set of key-equal facts with
// relation name Rel and primary key Key.
type BlockID struct {
	Rel string
	Key string
}

// String renders the block id as R(a,*).
func (b BlockID) String() string { return fmt.Sprintf("%s(%s,*)", b.Rel, b.Key) }

// Instance is a finite set of facts. It maintains block and adjacency
// indexes. The zero value is not ready for use; call New.
//
// An Instance is safe for concurrent READS (the accessors read one
// atomically published snapshot); mutating methods (Add, AddFact,
// Remove) must not race with readers or each other.
type Instance struct {
	facts  map[Fact]struct{}
	blocks map[BlockID][]string // block -> sorted distinct vals
	// adom and rels count fact occurrences per constant and relation
	// name, so a removal knows in O(1) whether it shrank the universe —
	// the delta-interning path must not pay an O(|db|) domain recompute
	// per mutation.
	adom map[string]int
	rels map[string]int
	// snap is the published snapshot of the current state, nil from a
	// mutation until the next read builds one.
	snap atomic.Pointer[Interned]

	// Delta-interning state, maintained by the mutating methods (which
	// by contract never race with readers or each other): prev is the
	// interned snapshot the dirty set is relative to, dirty the blocks
	// touched since prev was current, and dirtyFull is set when the
	// mutations changed the constant/relation universe (or overflowed
	// the dirty bound), forcing the next Interned build to start a
	// fresh lineage root.
	prev      *Interned
	dirty     map[BlockID]struct{}
	dirtyFull bool
	// lastDelta is the most recent delta child built (a child of some
	// snapshot on the current lineage). undoCollapse compares candidate
	// states against it so that flapping between two states A<->B
	// resolves both directions to existing pointers instead of
	// re-cloning B's snapshot on every revisit. Concurrent first readers
	// of a new state all build (and record) a delta, so it is atomic.
	lastDelta atomic.Pointer[Interned]
}

// publish stores iv as the snapshot of db's current state unless a
// concurrent first reader published one before it, and returns the
// snapshot that won. Mutations never race readers, so the only race is
// between readers building the same state: the first CAS wins and a
// losing build is discarded, never handed out. Every caller therefore
// sees ONE *Interned pointer per instance state, the identity the
// solver tiers (and the engine's snapshot-affine batch shards) key
// their per-snapshot memos on.
func (db *Instance) publish(iv *Interned) *Interned {
	if db.snap.CompareAndSwap(nil, iv) {
		return iv
	}
	return db.snap.Load()
}

// invalidate drops the published snapshot after a mutation.
func (db *Instance) invalidate() { db.snap.Store(nil) }

// maxDirtyBlocks bounds the dirty set a delta build will patch; past it
// a full rebuild is cheaper than merging per-block edits.
const maxDirtyBlocks = 64

// noteMutation records that a mutation touched block bid. It is called
// by the mutating methods before invalidate, so it can still see the
// snapshot the mutation is diverging from; universe must be true when
// the mutation changed the constant or relation universe (which makes
// the interned id tables unshareable). Mutations never race with
// readers or each other (the Instance contract), so this state needs no
// synchronization.
func (db *Instance) noteMutation(bid BlockID, universe bool) {
	if iv := db.snap.Load(); iv != nil && iv != db.prev {
		// A snapshot was built since the last mutation: the dirty set
		// restarts relative to it.
		db.prev = iv
		db.dirty = nil
		db.dirtyFull = false
	}
	if universe {
		db.dirtyFull = true
	}
	if db.dirtyFull {
		return
	}
	if db.dirty == nil {
		db.dirty = make(map[BlockID]struct{})
	}
	db.dirty[bid] = struct{}{}
	if len(db.dirty) > maxDirtyBlocks {
		db.dirtyFull = true
	}
}

// New returns an empty instance.
func New() *Instance {
	return &Instance{
		facts:  make(map[Fact]struct{}),
		blocks: make(map[BlockID][]string),
		adom:   make(map[string]int),
		rels:   make(map[string]int),
	}
}

// FromFacts returns an instance containing exactly the given facts.
func FromFacts(facts ...Fact) *Instance {
	db := New()
	for _, f := range facts {
		db.Add(f)
	}
	return db
}

// Add inserts fact f (idempotent). It returns db for chaining.
func (db *Instance) Add(f Fact) *Instance {
	if _, ok := db.facts[f]; ok {
		return db
	}
	// Read the occurrence counts once and write them back incremented:
	// a zero count is the universe-growth signal, and folding the
	// existence probes into the counter reads keeps the mutation at two
	// hash operations per key (this is the per-mutation hot path the
	// delta-interning tiers ride).
	ak := db.adom[f.Key]
	av := db.adom[f.Val]
	ar := db.rels[f.Rel]
	db.noteMutation(BlockID{f.Rel, f.Key}, ak == 0 || av == 0 || ar == 0)
	db.facts[f] = struct{}{}
	id := BlockID{f.Rel, f.Key}
	vals := db.blocks[id]
	pos := sort.SearchStrings(vals, f.Val)
	vals = append(vals, "")
	copy(vals[pos+1:], vals[pos:])
	vals[pos] = f.Val
	db.blocks[id] = vals
	if f.Key == f.Val {
		db.adom[f.Key] = ak + 2
	} else {
		db.adom[f.Key] = ak + 1
		db.adom[f.Val] = av + 1
	}
	db.rels[f.Rel] = ar + 1
	db.invalidate()
	return db
}

// AddFact inserts R(key, val).
func (db *Instance) AddFact(rel, key, val string) *Instance {
	return db.Add(Fact{rel, key, val})
}

// Remove deletes fact f if present.
func (db *Instance) Remove(f Fact) {
	if _, ok := db.facts[f]; !ok {
		return
	}
	delete(db.facts, f)
	id := BlockID{f.Rel, f.Key}
	vals := db.blocks[id]
	pos := sort.SearchStrings(vals, f.Val)
	vals = append(vals[:pos], vals[pos+1:]...)
	if len(vals) == 0 {
		delete(db.blocks, id)
	} else {
		db.blocks[id] = vals
	}
	// Dropping the last occurrence of a constant or relation shrinks the
	// universe; the occurrence counts make that an O(1) check instead of
	// a full domain recompute, keeping removals on the delta-interning
	// path as cheap as insertions.
	universe := false
	for _, c := range [...]string{f.Key, f.Val} {
		if n := db.adom[c] - 1; n == 0 {
			delete(db.adom, c)
			universe = true
		} else {
			db.adom[c] = n
		}
	}
	if n := db.rels[f.Rel] - 1; n == 0 {
		delete(db.rels, f.Rel)
		universe = true
	} else {
		db.rels[f.Rel] = n
	}
	db.noteMutation(id, universe)
	db.invalidate()
}

// Contains reports whether f is in db.
func (db *Instance) Contains(f Fact) bool {
	_, ok := db.facts[f]
	return ok
}

// Size returns the number of facts.
func (db *Instance) Size() int { return len(db.facts) }

// Facts returns all facts in sorted (relation, key, value) order, read
// out of the interned snapshot. Each call builds a fresh slice.
func (db *Instance) Facts() []Fact {
	iv := db.Interned()
	out := make([]Fact, 0, iv.nfacts)
	for r, bs := range iv.blocks {
		for _, b := range bs {
			for _, v := range b.Vals {
				out = append(out, Fact{iv.rels[r], iv.consts[b.Key], iv.consts[v]})
			}
		}
	}
	return out
}

// Adom returns the active domain in sorted order: the interned
// snapshot's constants. The slice is shared and must not be modified.
func (db *Instance) Adom() []string { return db.Interned().consts }

// Relations returns the relation names occurring in db, sorted: the
// interned snapshot's relations. The slice is shared and must not be
// modified.
func (db *Instance) Relations() []string { return db.Interned().rels }

// Block returns the non-key values of the block R(key, *), sorted.
// The returned slice must not be modified.
func (db *Instance) Block(rel, key string) []string {
	return db.blocks[BlockID{rel, key}]
}

// HasBlock reports whether the block R(key,*) is nonempty.
func (db *Instance) HasBlock(rel, key string) bool {
	return len(db.blocks[BlockID{rel, key}]) > 0
}

// Blocks returns all block ids in sorted (relation, key) order, read
// out of the interned snapshot. Each call builds a fresh slice.
func (db *Instance) Blocks() []BlockID {
	iv := db.Interned()
	out := make([]BlockID, 0, len(db.blocks))
	for r, bs := range iv.blocks {
		for _, b := range bs {
			out = append(out, BlockID{iv.rels[r], iv.consts[b.Key]})
		}
	}
	return out
}

// Interned is an immutable dense-integer view of an instance: the
// active domain and the relation names interned to dense ids, with
// every block rewritten to interned ids. Ids are assigned in sorted
// order, so id order coincides with the lexicographic order of the
// underlying names (and interned block values stay sorted ascending).
//
// Solvers index slices by these ids instead of hashing strings, which
// is what makes the Figure 5 fixpoint loop allocation- and hash-free
// per evaluation. It is the one state an Instance publishes (Adom,
// Relations, Blocks and Facts are read out of it), and a fresh one is
// built after every mutation, so pointer identity of an *Interned
// identifies one immutable instance state: compiled plans key their
// instance-bound transition tables on it and get invalidation on
// mutation for free.
type Interned struct {
	consts  []string
	constID map[string]int32
	rels    []string
	relID   map[string]int32
	blocks  [][]InternedBlock // indexed by relation id
	nfacts  int
	delta   *Delta // nil for lineage roots
}

// BlockRef names one block in interned id space: the relation id and
// the key constant id. Along a delta lineage ids are stable, so a ref
// recorded against one snapshot is valid for every snapshot of the
// lineage.
type BlockRef struct {
	Rel, Key int32
}

// Delta records how a snapshot structurally differs from its parent:
// the blocks whose contents changed (added, removed, or with a
// different value set). Touched may over-approximate (a block edited
// back to its old contents still appears), never under-approximate.
// Everything outside Touched — including the shared const/relation id
// tables and the untouched relations' block slices, which the child
// aliases rather than copies — is bit-identical between parent and
// child. Solver memos use the chain of Deltas to repair a resident
// ancestor artifact instead of cold-building (see memo.LRU.GetOrRepair
// and Lineage below).
type Delta struct {
	Parent  *Interned
	Touched []BlockRef
	// Depth is the number of delta edges back to the lineage root;
	// bounded by MaxLineageDepth, so a chain retains at most that many
	// old snapshots.
	Depth int
}

// MaxLineageDepth bounds how many delta edges a snapshot lineage may
// chain before the next build starts a fresh root. Each delta snapshot
// keeps its parent reachable (repair needs it), so the bound caps both
// the retained memory and the worst-case accumulated Touched set a
// repair must patch.
const MaxLineageDepth = 256

// Delta returns the lineage record of this snapshot, or nil when it is
// a lineage root (built from scratch, with nothing to repair from).
func (iv *Interned) Delta() *Delta { return iv.delta }

// LineageDepth returns the number of delta edges between iv and its
// lineage root (0 for a root). The difference of two depths on the same
// chain is the hop distance a repair crosses, the quantity behind
// memo.Stats.MaxLineageDepth.
func (iv *Interned) LineageDepth() int {
	if iv.delta == nil {
		return 0
	}
	return iv.delta.Depth
}

// Lineage walks the delta chain from iv towards the root, looking for
// an ancestor accepted by resident (typically: "my memo still holds an
// artifact for this snapshot"). It returns that ancestor together with
// the union of all Touched sets on the path (deduplicated) — exactly
// the blocks a repair must reconcile to turn the ancestor's artifact
// into iv's. ok is false when no acceptable ancestor exists within the
// chain, or iv is a root.
func Lineage(iv *Interned, resident func(*Interned) bool) (parent *Interned, touched []BlockRef, ok bool) {
	seen := make(map[BlockRef]struct{})
	for cur := iv; cur.delta != nil; cur = cur.delta.Parent {
		for _, t := range cur.delta.Touched {
			if _, dup := seen[t]; !dup {
				seen[t] = struct{}{}
				touched = append(touched, t)
			}
		}
		if p := cur.delta.Parent; resident(p) {
			return p, touched, true
		}
	}
	return nil, nil, false
}

// InternedBlock is one block R(key,*) in interned form: the key
// constant id and the sorted ids of the non-key values.
type InternedBlock struct {
	Key  int32
	Vals []int32
}

// Interned returns the interned view of db, building and publishing it
// on the first read after a mutation. The returned value is immutable
// and shared; like the other accessor views it must not be modified,
// and it is safe for any number of concurrent readers.
func (db *Instance) Interned() *Interned {
	if iv := db.snap.Load(); iv != nil {
		return iv
	}
	iv := db.internedDelta()
	if iv == nil {
		iv = db.internRoot(sortedNames(db.adom), db.blockIDs(), 1)
	}
	// Chaos failpoint: a freshly interned snapshot is about to be
	// published. Interned has no error path, so an injected error
	// escalates to a panic for the callers' recover boundaries.
	if err := faultinject.Fire(faultinject.SnapshotPublish); err != nil {
		panic(err)
	}
	return db.publish(iv)
}

// internRoot builds a lineage-root snapshot of db from its block
// index. consts must be the sorted active domain, bids every block id
// of db in any order, and each block's values sorted (Add keeps them
// so, and finalizeBulk sorts them first). The blocks are sorted by
// (relation id, key id), which is their name order because ids ascend
// with names, and then their values are interned. Both interning passes
// shard across workers.
func (db *Instance) internRoot(consts []string, bids []BlockID, workers int) *Interned {
	rels := sortedNames(db.rels)
	iv := &Interned{
		consts:  consts,
		constID: make(map[string]int32, len(consts)),
		rels:    rels,
		relID:   make(map[string]int32, len(rels)),
		blocks:  make([][]InternedBlock, len(rels)),
		nfacts:  len(db.facts),
	}
	for i, s := range consts {
		iv.constID[s] = int32(i)
	}
	for i, r := range rels {
		iv.relID[r] = int32(i)
	}
	type entry struct {
		ref  uint64 // relation id << 32 | key id
		vals []string
	}
	es := make([]entry, len(bids))
	bb := par.Blocks(len(bids), workers, 1)
	par.Run(len(bb)-1, func(w int) {
		for i := bb[w]; i < bb[w+1]; i++ {
			id := bids[i]
			es[i] = entry{uint64(iv.relID[id.Rel])<<32 | uint64(iv.constID[id.Key]), db.blocks[id]}
		}
	})
	slices.SortFunc(es, func(a, b entry) int { return cmp.Compare(a.ref, b.ref) })
	all := make([]InternedBlock, len(es))
	par.Run(len(bb)-1, func(w int) {
		for i := bb[w]; i < bb[w+1]; i++ {
			vals := make([]int32, len(es[i].vals))
			for j, v := range es[i].vals {
				vals[j] = iv.constID[v]
			}
			all[i] = InternedBlock{Key: int32(es[i].ref), Vals: vals}
		}
	})
	for i, j := 0, 0; i < len(es); i = j {
		for j = i; j < len(es) && es[j].ref>>32 == es[i].ref>>32; j++ {
		}
		iv.blocks[es[i].ref>>32] = all[i:j:j]
	}
	return iv
}

// sortedNames returns the names counted by an occurrence map, sorted.
func sortedNames(counts map[string]int) []string {
	out := make([]string, 0, len(counts))
	for s := range counts {
		out = append(out, s)
	}
	slices.Sort(out)
	return out
}

// blockIDs returns the ids of db's blocks in map order.
func (db *Instance) blockIDs() []BlockID {
	out := make([]BlockID, 0, len(db.blocks))
	for id := range db.blocks {
		out = append(out, id)
	}
	return out
}

// internedDelta builds the next snapshot as a copy-on-write delta of
// db.prev, or returns nil when the lineage must restart from a fresh
// root: no previous snapshot, a universe change or dirty overflow
// (dirtyFull), or a chain already at MaxLineageDepth. Like Interned it
// only reads the mutation-side state (mutations never race readers),
// so concurrent first readers may both build a delta child of the same
// parent — the publish CAS converges them on one pointer as usual.
func (db *Instance) internedDelta() *Interned {
	prev := db.prev
	if prev == nil || db.dirtyFull || len(db.dirty) == 0 {
		return nil
	}
	if prev.delta != nil && prev.delta.Depth >= MaxLineageDepth {
		return nil
	}
	// Intern the dirty blocks against the parent's id tables. Every
	// name must already have an id — the mutators set dirtyFull on any
	// universe change — but fall back to a root build rather than trust
	// that invariant with a panic.
	edits := make([]blockEdit, 0, len(db.dirty))
	for bid := range db.dirty {
		rid, okR := prev.relID[bid.Rel]
		kid, okK := prev.constID[bid.Key]
		if !okR || !okK {
			return nil
		}
		vals := db.blocks[bid]
		ivals := make([]int32, len(vals))
		for i, v := range vals {
			cid, ok := prev.constID[v]
			if !ok {
				return nil
			}
			ivals[i] = cid
		}
		edits = append(edits, blockEdit{BlockRef{rid, kid}, ivals})
	}
	// A mutation run that exactly restores an existing snapshot needs no
	// new snapshot at all: if every dirty block carries prev's content
	// the state still IS prev, and if the run exactly undid prev's delta
	// it is prev's parent. Republishing that pointer keeps the lineage
	// shallow and turns the A/B flapping of add-then-compensate churn
	// into pure memo hits downstream — no repair, no per-delta clone of
	// the touched relation's block list, no depth growth towards the
	// MaxLineageDepth root restart.
	if iv := db.undoCollapse(prev, edits); iv != nil {
		return iv
	}
	sort.Slice(edits, func(i, j int) bool {
		a, b := edits[i].ref, edits[j].ref
		if a.Rel != b.Rel {
			return a.Rel < b.Rel
		}
		return a.Key < b.Key
	})

	child := &Interned{
		consts:  prev.consts,
		constID: prev.constID,
		rels:    prev.rels,
		relID:   prev.relID,
		blocks:  make([][]InternedBlock, len(prev.blocks)),
		nfacts:  len(db.facts),
	}
	copy(child.blocks, prev.blocks)
	touched := make([]BlockRef, len(edits))
	cloned := make(map[int32]bool, 4)
	for i, e := range edits {
		touched[i] = e.ref
		bs := child.blocks[e.ref.Rel]
		if !cloned[e.ref.Rel] {
			bs = append([]InternedBlock(nil), bs...)
			cloned[e.ref.Rel] = true
		}
		pos := sort.Search(len(bs), func(k int) bool { return bs[k].Key >= e.ref.Key })
		present := pos < len(bs) && bs[pos].Key == e.ref.Key
		switch {
		case len(e.vals) == 0: // block emptied by Remove
			if present {
				bs = append(bs[:pos], bs[pos+1:]...)
			}
		case present:
			bs[pos] = InternedBlock{Key: e.ref.Key, Vals: e.vals}
		default:
			bs = append(bs, InternedBlock{})
			copy(bs[pos+1:], bs[pos:])
			bs[pos] = InternedBlock{Key: e.ref.Key, Vals: e.vals}
		}
		child.blocks[e.ref.Rel] = bs
	}
	depth := 1
	if prev.delta != nil {
		depth = prev.delta.Depth + 1
	}
	child.delta = &Delta{Parent: prev, Touched: touched, Depth: depth}
	db.lastDelta.Store(child)
	return child
}

// blockEdit is one dirty block interned against the lineage's id
// tables: the block's ref and its full current value set (empty when
// the block was removed).
type blockEdit struct {
	ref  BlockRef
	vals []int32
}

// undoCollapse returns the existing snapshot the edits restore, or nil
// when the current state is genuinely new. Pointer identity is state
// identity for snapshots, so handing back a restored snapshot is not
// just an allocation win: every tier memo still holds that pointer's
// artifacts and hits without any repair. Three candidates cover the
// churn patterns that actually recur: prev itself (the dirty set was a
// no-op, e.g. add-then-remove between two builds), prev's parent (this
// run undid prev's delta), and the last delta child built off prev
// (this run redid a delta we just stepped back from — the B side of an
// A<->B flap).
func (db *Instance) undoCollapse(prev *Interned, edits []blockEdit) *Interned {
	nfacts := len(db.facts)
	if prev.nfacts == nfacts && editsMatch(prev, edits) {
		return prev
	}
	if d := prev.delta; d != nil && d.Parent.nfacts == nfacts &&
		touchedCovered(d.Touched, edits) && editsMatch(d.Parent, edits) {
		return d.Parent
	}
	if c := db.lastDelta.Load(); c != nil && c != prev && c.delta.Parent == prev &&
		c.nfacts == nfacts && touchedCovered(c.delta.Touched, edits) &&
		editsMatch(c, edits) {
		return c
	}
	return nil
}

// touchedCovered reports whether every ref in touched is among the
// edits. A candidate snapshot equals the current state only if each
// block it differs from its delta-neighbor on was re-edited this run —
// the equality of everything else follows structurally, because blocks
// outside the dirty set are bit-identical to prev's and blocks outside
// Touched are bit-identical across the delta edge.
func touchedCovered(touched []BlockRef, edits []blockEdit) bool {
	for _, t := range touched {
		found := false
		for _, e := range edits {
			if e.ref == t {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// editsMatch reports whether every edited block carries exactly iv's
// content for that block, an empty edit matching an absent block.
func editsMatch(iv *Interned, edits []blockEdit) bool {
	for _, e := range edits {
		got := iv.Block(e.ref.Rel, e.ref.Key)
		if len(got) != len(e.vals) {
			return false
		}
		for i, v := range got {
			if e.vals[i] != v {
				return false
			}
		}
	}
	return true
}

// NumConsts returns the number of interned constants (|adom|).
func (iv *Interned) NumConsts() int { return len(iv.consts) }

// Const returns the constant name with interned id c.
func (iv *Interned) Const(c int32) string { return iv.consts[c] }

// Consts returns the interned constant names in id order (the sorted
// active domain). The slice is shared and must not be modified.
func (iv *Interned) Consts() []string { return iv.consts }

// ConstID returns the interned id of constant c.
func (iv *Interned) ConstID(c string) (int32, bool) {
	id, ok := iv.constID[c]
	return id, ok
}

// NumRels returns the number of interned relation names.
func (iv *Interned) NumRels() int { return len(iv.rels) }

// Rel returns the relation name with interned id r.
func (iv *Interned) Rel(r int32) string { return iv.rels[r] }

// RelID returns the interned id of relation name r.
func (iv *Interned) RelID(r string) (int32, bool) {
	id, ok := iv.relID[r]
	return id, ok
}

// RelBlocks returns the blocks of the relation with interned id r, in
// ascending key-id order. The slice is shared and must not be modified.
func (iv *Interned) RelBlocks(r int32) []InternedBlock { return iv.blocks[r] }

// Block returns the non-key value ids of the block r(key,*), sorted
// ascending — the interned counterpart of Instance.Block. It binary
// searches the relation's key-ordered block list, so the snapshot
// carries no per-relation dense index (interning stays proportional to
// the facts, not relations × constants). The slice is shared and must
// not be modified.
func (iv *Interned) Block(r, key int32) []int32 {
	bs := iv.blocks[r]
	i, j := 0, len(bs)
	for i < j {
		h := (i + j) >> 1
		if bs[h].Key < key {
			i = h + 1
		} else {
			j = h
		}
	}
	if i < len(bs) && bs[i].Key == key {
		return bs[i].Vals
	}
	return nil
}

// NumFacts returns the number of facts in the interned snapshot.
func (iv *Interned) NumFacts() int { return iv.nfacts }

// InternWord interns the relation names of w to relation ids. A
// relation absent from the instance gets id -1: it has no blocks, so
// any walk step over it is empty.
func (iv *Interned) InternWord(w words.Word) []int32 {
	out := make([]int32, len(w))
	for i, rel := range w {
		if id, ok := iv.relID[rel]; ok {
			out[i] = id
		} else {
			out[i] = -1
		}
	}
	return out
}

// WalkBuf holds reusable frontier scratch for WalkEnds, so a caller
// walking from many start constants allocates the two frontier bitsets
// once. The zero value is ready for use.
type WalkBuf struct {
	cur, next bitset.Bits
}

func (b *WalkBuf) grow(nw int) {
	if cap(b.cur) < nw {
		b.cur = make(bitset.Bits, nw)
		b.next = make(bitset.Bits, nw)
	}
	b.cur = b.cur[:nw]
	b.next = b.next[:nw]
}

// WalkEnds returns the ids of the constants d such that the instance
// has a (not necessarily consistent) path from c to d with trace rels
// (relation ids as produced by InternWord), in ascending order — the
// interned counterpart of Instance.WalkEnds. buf may be nil.
func (iv *Interned) WalkEnds(c int32, rels []int32, buf *WalkBuf) []int32 {
	if buf == nil {
		buf = &WalkBuf{}
	}
	nc := len(iv.consts)
	buf.grow((nc + 63) >> 6)
	cur, next := buf.cur, buf.next
	cur.Clear()
	cur.Set(int(c))
	for _, rid := range rels {
		next.Clear()
		any := false
		if rid >= 0 {
			cur.ForEach(func(x int) {
				for _, v := range iv.Block(rid, int32(x)) {
					next.Set(int(v))
					any = true
				}
			})
		}
		cur, next = next, cur
		if !any {
			buf.cur, buf.next = cur, next
			return nil
		}
	}
	buf.cur, buf.next = cur, next
	var out []int32
	cur.ForEach(func(x int) { out = append(out, int32(x)) })
	return out
}

// ConflictingBlocks returns the ids of blocks with more than one fact.
func (db *Instance) ConflictingBlocks() []BlockID {
	var out []BlockID
	for _, id := range db.Blocks() {
		if len(db.blocks[id]) > 1 {
			out = append(out, id)
		}
	}
	return out
}

// IsConsistent reports whether no block contains more than one fact.
func (db *Instance) IsConsistent() bool {
	for _, vals := range db.blocks {
		if len(vals) > 1 {
			return false
		}
	}
	return true
}

// Out returns the successors d with R(c, d) ∈ db, sorted. For a
// consistent instance this has at most one element per (R, c).
func (db *Instance) Out(rel, c string) []string { return db.Block(rel, c) }

// Clone returns an independent deep copy of db.
func (db *Instance) Clone() *Instance {
	out := New()
	for f := range db.facts {
		out.Add(f)
	}
	return out
}

// Equal reports whether db and other contain exactly the same facts.
func (db *Instance) Equal(other *Instance) bool {
	if len(db.facts) != len(other.facts) {
		return false
	}
	for f := range db.facts {
		if !other.Contains(f) {
			return false
		}
	}
	return true
}

// SubsetOf reports whether every fact of db is in other.
func (db *Instance) SubsetOf(other *Instance) bool {
	for f := range db.facts {
		if !other.Contains(f) {
			return false
		}
	}
	return true
}

// IsRepairOf reports whether db is a repair of full: a maximal consistent
// subset. Equivalently: db ⊆ full, db is consistent, and db contains
// exactly one fact from every block of full.
func (db *Instance) IsRepairOf(full *Instance) bool {
	if !db.IsConsistent() || !db.SubsetOf(full) {
		return false
	}
	for _, id := range full.Blocks() {
		if len(db.Block(id.Rel, id.Key)) != 1 {
			return false
		}
	}
	return true
}

// String renders the instance as a sorted fact list.
func (db *Instance) String() string {
	facts := db.Facts()
	parts := make([]string, len(facts))
	for i, f := range facts {
		parts[i] = f.String()
	}
	return "{" + strings.Join(parts, ", ") + "}"
}
