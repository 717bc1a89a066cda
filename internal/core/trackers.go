package core

// trackers.go holds the incremental state shared by the quotient engine's
// per-kind drivers (engine.go): node adjacency over the accumulated data
// triples, interned class sets, incrementally maintained property cliques,
// and the refcounted summary-edge bookkeeping that lets drivers re-represent
// nodes without re-scanning the graph.

import (
	"encoding/binary"
	"sort"

	"rdfsum/internal/dict"
	"rdfsum/internal/store"
	"rdfsum/internal/unionfind"
)

// classRef identifies a node's current equivalence class inside one driver,
// at the granularity the driver's edge bookkeeping needs. The encoding is
// deliberately "raw" (union-find elements, not canonical roots): classes
// that merge are reconciled lazily at snapshot time by canonicalizing the
// refs, while the only non-merge class changes — a node migrating between
// partitions — eagerly re-key that node's incident edges.
type classRef struct {
	tag  int8
	a, b int32
}

const (
	// refClique: an untyped node under a strong-style driver.
	// a = representative in-property element (-1 for the empty target
	// clique), b = representative out-property element (-1 for ∅).
	refClique int8 = iota
	// refSet: a typed node; a = interned class-set ID.
	refSet
	// refWeak: an untyped node under a weak-style driver; a = its
	// union-find element.
	refWeak
	// refNode: an untyped node represented by a fresh copy of itself
	// (type-based summary); a = the node's own dictionary ID.
	refNode
)

// edgeKey is one summary data edge at classRef granularity.
type edgeKey struct {
	s classRef
	p dict.ID
	o classRef
}

// edgeTracker maintains the multiset of summary data edges of one driver:
// counts is the refcounted edge map and keys records, per input data triple
// (parallel to Graph.Data), the exact key the triple currently contributes
// to — so a re-representation can decrement precisely the entry it
// incremented, regardless of merges that happened in between.
type edgeTracker struct {
	counts map[edgeKey]int
	keys   []edgeKey
}

// reset clears the tracker for a driver rebuild over n data triples.
// counts is left to grow: it holds one entry per distinct summary edge,
// far fewer than n.
func (e *edgeTracker) reset(n int) {
	e.counts = make(map[edgeKey]int)
	e.keys = make([]edgeKey, 0, n)
}

// append records the key of the next data triple (index len(keys)).
func (e *edgeTracker) append(k edgeKey) {
	e.keys = append(e.keys, k)
	e.counts[k]++
}

// rekey moves data triple i from its stored key to k.
func (e *edgeTracker) rekey(i int32, k edgeKey) {
	old := e.keys[i]
	if old == k {
		return
	}
	e.decrement(old)
	e.counts[k]++
	e.keys[i] = k
}

// remove decrements the key data triple i contributes — the exact
// decremental path a deletion takes when the driver's bookkeeping is
// refcounted. The stale keys[i] entry dies in the following compact.
func (e *edgeTracker) remove(i int32) { e.decrement(e.keys[i]) }

func (e *edgeTracker) decrement(k edgeKey) {
	if c := e.counts[k]; c <= 1 {
		delete(e.counts, k)
	} else {
		e.counts[k] = c - 1
	}
}

// compact renumbers keys after the graph's data component dropped the
// positions mapped to -1: keys[remap[i]] = keys[i] for survivors.
func (e *edgeTracker) compact(remap []int32) {
	out := e.keys[:0]
	for i, k := range e.keys {
		if remap[i] >= 0 {
			out = append(out, k)
		}
	}
	e.keys = out
}

// adjacency indexes the accumulated data triples by endpoint, so drivers
// can re-key a node's incident edges in O(degree) when it is
// re-represented. Values are indexes into Graph.Data.
type adjacency struct {
	out map[dict.ID][]int32
	in  map[dict.ID][]int32
}

func newAdjacency() *adjacency {
	return &adjacency{out: make(map[dict.ID][]int32), in: make(map[dict.ID][]int32)}
}

func (a *adjacency) add(t store.Triple, i int32) {
	a.out[t.S] = append(a.out[t.S], i)
	a.in[t.O] = append(a.in[t.O], i)
}

// each visits the indexes of n's incident data triples (out-edges, then
// in-edges; a self-loop is visited twice, which re-keying tolerates).
func (a *adjacency) each(n dict.ID, fn func(i int32)) {
	for _, i := range a.out[n] {
		fn(i)
	}
	for _, i := range a.in[n] {
		fn(i)
	}
}

// remap rewrites every stored index through remap after the data component
// compacted away deleted positions (-1 = deleted). Nodes whose last
// incident edge died leave the maps entirely, so "appears in the
// adjacency" keeps meaning "is an endpoint of a live data triple".
func (a *adjacency) remap(remap []int32) {
	for _, m := range []map[dict.ID][]int32{a.out, a.in} {
		for n, list := range m {
			kept := list[:0]
			for _, i := range list {
				if ni := remap[i]; ni >= 0 {
					kept = append(kept, ni)
				}
			}
			if len(kept) == 0 {
				delete(m, n)
			} else {
				m[n] = kept
			}
		}
	}
}

// typeEvent describes the effect of one type triple on the class-set
// tracker. Drivers read the node's new set through the tracker itself.
type typeEvent struct {
	node    dict.ID
	old     int32 // set ID before the triple; -1 if the node was untyped
	changed bool  // false when the class was already in the node's set
}

// classSetTracker maintains, for every typed resource, its current class
// set (sorted, deduplicated — Definition 12's grouping key), interning
// equal sets under one dense ID so drivers can use set IDs in edge keys.
// It is shared by the type-based, typed-weak and typed-strong drivers of a
// BuilderSet: one update serves all three.
type classSetTracker struct {
	setOf   map[dict.ID]int32 // typed node -> interned set ID
	byKey   map[string]int32  // canonical byte key -> set ID
	classes [][]dict.ID       // set ID -> sorted class IDs
	members []int             // set ID -> nodes currently holding that set
}

func newClassSetTracker() *classSetTracker {
	return &classSetTracker{setOf: make(map[dict.ID]int32), byKey: make(map[string]int32)}
}

func (c *classSetTracker) isTyped(n dict.ID) bool {
	_, ok := c.setOf[n]
	return ok
}

// addType applies one type triple (n, τ, cls) and reports how n's set
// changed. Class sets only grow per node, so the only events are "first
// type" (old == -1) and "set grew".
func (c *classSetTracker) addType(n, cls dict.ID) typeEvent {
	ev := typeEvent{node: n, old: -1}
	old, typed := c.setOf[n]
	if typed {
		ev.old = old
		set := c.classes[old]
		i := sort.Search(len(set), func(i int) bool { return set[i] >= cls })
		if i < len(set) && set[i] == cls {
			return ev
		}
		grown := make([]dict.ID, 0, len(set)+1)
		grown = append(grown, set[:i]...)
		grown = append(grown, cls)
		grown = append(grown, set[i:]...)
		sid := c.intern(grown)
		c.members[old]--
		c.members[sid]++
		c.setOf[n] = sid
		ev.changed = true
		return ev
	}
	sid := c.intern([]dict.ID{cls})
	c.members[sid]++
	c.setOf[n] = sid
	ev.changed = true
	return ev
}

// removeType applies the deletion of the type triple (n, τ, cls): n's
// class set shrinks (sets are refcount-free because the graph stores type
// triples set-wise per pair after a delete removes every copy). Exact and
// invertible — the one quotient-relevant structure deletions never force a
// rebuild of. The returned event mirrors addType's; when the node loses
// its last class it leaves the typed partition entirely (setOf drops it).
func (c *classSetTracker) removeType(n, cls dict.ID) typeEvent {
	ev := typeEvent{node: n, old: -1}
	old, typed := c.setOf[n]
	if !typed {
		return ev
	}
	ev.old = old
	set := c.classes[old]
	i := sort.Search(len(set), func(i int) bool { return set[i] >= cls })
	if i >= len(set) || set[i] != cls {
		return ev
	}
	ev.changed = true
	c.members[old]--
	if len(set) == 1 {
		delete(c.setOf, n)
		return ev
	}
	shrunk := make([]dict.ID, 0, len(set)-1)
	shrunk = append(shrunk, set[:i]...)
	shrunk = append(shrunk, set[i+1:]...)
	sid := c.intern(shrunk)
	c.members[sid]++
	c.setOf[n] = sid
	return ev
}

func (c *classSetTracker) intern(set []dict.ID) int32 {
	key := make([]byte, 4*len(set))
	for i, id := range set {
		binary.LittleEndian.PutUint32(key[4*i:], uint32(id))
	}
	if sid, ok := c.byKey[string(key)]; ok {
		return sid
	}
	sid := int32(len(c.classes))
	c.byKey[string(key)] = sid
	c.classes = append(c.classes, set)
	c.members = append(c.members, 0)
	return sid
}

// setNamer returns C(X) by interned set ID, memoized for one snapshot so
// each set's URI is rendered once rather than once per summary edge.
func (c *classSetTracker) setNamer(rep *representer) func(sid int32) dict.ID {
	names := make([]dict.ID, len(c.classes))
	return func(sid int32) dict.ID {
		if names[sid] == dict.None {
			names[sid] = rep.classSetNode(c.classes[sid])
		}
		return names[sid]
	}
}

// emitTypes adds, for every class set currently held by at least one node,
// the triples C(X) τ c for each c ∈ X.
func (c *classSetTracker) emitTypes(g, out *store.Graph, setName func(int32) dict.ID) {
	v := g.Vocab()
	for sid, count := range c.members {
		if count <= 0 {
			continue
		}
		node := setName(int32(sid))
		for _, cls := range c.classes[sid] {
			out.Types = append(out.Types, store.Triple{S: node, P: v.Type, O: cls})
		}
	}
}

// cliqueNodeState is one node's position in a cliqueTracker: the
// representative property on each side (its clique is the representative's
// clique), plus whether the node ever related two distinct properties on a
// side — the information needed to decide if the node can be dropped from
// the structure without a rebuild (typed-strong's late-typing migration).
type cliqueNodeState struct {
	repIn, repOut     int32 // property element, -1 = no clique on that side
	multiIn, multiOut bool
}

// cliqueTracker maintains the source and target property cliques
// (Definition 5) incrementally: properties are union-find elements, and a
// data triple unions its property with the subject's (resp. object's)
// representative property. Cliques only merge under insertion, so the
// structure never needs revisiting; a node's clique pair is read through
// Find at snapshot time.
type cliqueTracker struct {
	propIdx map[dict.ID]int32
	props   []dict.ID
	srcUF   *unionfind.UF
	tgtUF   *unionfind.UF
	nodes   map[dict.ID]*cliqueNodeState
}

func newCliqueTracker() *cliqueTracker {
	return &cliqueTracker{
		propIdx: make(map[dict.ID]int32),
		srcUF:   &unionfind.UF{},
		tgtUF:   &unionfind.UF{},
		nodes:   make(map[dict.ID]*cliqueNodeState),
	}
}

// prop interns p as a property element of both union-finds (same index).
func (c *cliqueTracker) prop(p dict.ID) int32 {
	if i, ok := c.propIdx[p]; ok {
		return i
	}
	i := c.srcUF.Add()
	c.tgtUF.Add()
	c.propIdx[p] = i
	c.props = append(c.props, p)
	return i
}

func (c *cliqueTracker) state(n dict.ID) *cliqueNodeState {
	st := c.nodes[n]
	if st == nil {
		st = &cliqueNodeState{repIn: -1, repOut: -1}
		c.nodes[n] = st
	}
	return st
}

// noteSubject records that n is a subject of p. The return value reports a
// non-merge class change (n just acquired its source clique), which the
// caller must answer by re-keying n's incident edges.
func (c *cliqueTracker) noteSubject(n dict.ID, p dict.ID) (first bool) {
	pi := c.prop(p)
	st := c.state(n)
	if st.repOut < 0 {
		st.repOut = pi
		return true
	}
	if st.repOut != pi {
		st.multiOut = true
		c.srcUF.Union(st.repOut, pi)
	}
	return false
}

// noteObject records that n is an object of p; see noteSubject.
func (c *cliqueTracker) noteObject(n dict.ID, p dict.ID) (first bool) {
	pi := c.prop(p)
	st := c.state(n)
	if st.repIn < 0 {
		st.repIn = pi
		return true
	}
	if st.repIn != pi {
		st.multiIn = true
		c.tgtUF.Union(st.repIn, pi)
	}
	return false
}

// drop removes n from the tracker if its departure cannot split a clique:
// a node that never related two distinct properties on either side
// contributed no property–property link, so deleting its assignment is
// exact. Returns false — leaving the tracker untouched — when n may be
// load-bearing, in which case the caller must schedule a rebuild.
func (c *cliqueTracker) drop(n dict.ID) bool {
	st := c.nodes[n]
	if st == nil {
		return true
	}
	if st.multiIn || st.multiOut {
		return false
	}
	delete(c.nodes, n)
	return true
}

// memberLists groups the interned properties by their current clique roots
// on each side. Member order is irrelevant: the representation function
// sorts lexically.
func (c *cliqueTracker) memberLists() (srcM, tgtM map[int32][]dict.ID) {
	srcM = make(map[int32][]dict.ID)
	tgtM = make(map[int32][]dict.ID)
	for i, p := range c.props {
		sr := c.srcUF.Find(int32(i))
		tr := c.tgtUF.Find(int32(i))
		srcM[sr] = append(srcM[sr], p)
		tgtM[tr] = append(tgtM[tr], p)
	}
	return srcM, tgtM
}
