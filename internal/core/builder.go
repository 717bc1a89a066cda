package core

// builder.go holds the weak driver of the quotient engine — the paper's
// Algorithms 1–3 as incremental maintenance, the construction PR 3 shipped
// as WeakBuilder and the engine generalizes to every kind — plus the
// WeakBuilder facade kept for callers that want the weak kind directly.

import (
	"rdfsum/internal/dict"
	"rdfsum/internal/rdf"
	"rdfsum/internal/store"
	"rdfsum/internal/unionfind"
)

// weakDriver maintains the weak summary: each data triple unifies its
// subject with the property's unique source representative and its object
// with the target representative (GETSOURCE / GETTARGET / MERGEDATANODES),
// at O(α) amortized per triple. Weak equivalence classes only merge, so no
// migration is ever needed under insertion; types are attached at snapshot
// time by Algorithm 3 (summarizeTypesWeak). A data deletion, however, can
// split a class — unions are not invertible — so it marks the driver dirty
// and the next snapshot pays one counted rebuild over the surviving data
// triples (type and schema deletions are free).
type weakDriver struct {
	bs       *BuilderSet
	uf       unionfind.UF
	elemOf   map[dict.ID]int32 // data node -> forest element
	propElem map[dict.ID]int32 // data property -> source element e (dpSrc); its target (dpTarg) is e+1
	dirty    bool
	nRebuild uint64
}

func (d *weakDriver) resetState() {
	d.uf = unionfind.UF{}
	d.elemOf = make(map[dict.ID]int32)
	d.propElem = make(map[dict.ID]int32)
}

func (d *weakDriver) kind() Kind                      { return Weak }
func (d *weakDriver) needsClasses() bool              { return false }
func (d *weakDriver) rebuilds() uint64                { return d.nRebuild }
func (d *weakDriver) typeAdded(typeEvent)             {}
func (d *weakDriver) typeDeleted(typeEvent)           {}
func (d *weakDriver) dataDeleted(int32, store.Triple) { d.dirty = true }
func (d *weakDriver) dataCompacted([]int32)           {}

func (d *weakDriver) node(n dict.ID) int32 {
	if e, ok := d.elemOf[n]; ok {
		return e
	}
	e := d.uf.Add()
	d.elemOf[n] = e
	return e
}

func (d *weakDriver) feed(t store.Triple) {
	pe, ok := d.propElem[t.P]
	if !ok {
		pe = d.uf.Add()
		d.uf.Add()
		d.propElem[t.P] = pe
	}
	d.uf.Union(d.node(t.S), pe)
	d.uf.Union(d.node(t.O), pe+1)
}

func (d *weakDriver) dataAdded(_ int32, t store.Triple) {
	if d.dirty {
		return // the pending rebuild re-feeds every surviving triple
	}
	d.feed(t)
}

// rebuild constructs the union-find over the graph's data triples: the
// seed of a new builder set, and the deferred cost of a non-invertible
// deletion, paid at most once per snapshot no matter how many deletions
// batched up before it.
func (d *weakDriver) rebuild() {
	d.resetState()
	for _, t := range d.bs.g.Data {
		d.feed(t)
	}
	d.dirty = false
}

// settle pays a pending deferred rebuild.
func (d *weakDriver) settle() {
	if d.dirty {
		d.nRebuild++
		d.rebuild()
	}
}

// classCount reports the current number of weak equivalence classes among
// nodes with data properties (cheap: no summary materialization).
func (d *weakDriver) classCount() int {
	d.settle()
	roots := map[int32]bool{}
	for _, e := range d.elemOf {
		roots[d.uf.Find(e)] = true
	}
	return len(roots)
}

func (d *weakDriver) snapshot() *Summary {
	d.settle()
	g := d.bs.g
	inProps := make(map[int32][]dict.ID)
	outProps := make(map[int32][]dict.ID)
	for p, pe := range d.propElem {
		src, tgt := d.uf.Find(pe), d.uf.Find(pe+1)
		outProps[src] = append(outProps[src], p)
		inProps[tgt] = append(inProps[tgt], p)
	}
	rep := newRepresenter(g, Weak)
	nameOf := make(map[int32]dict.ID)
	name := func(root int32) dict.ID {
		if id, ok := nameOf[root]; ok {
			return id
		}
		id := rep.node(inProps[root], outProps[root])
		nameOf[root] = id
		return id
	}

	out := store.NewGraphWithDict(g.Dict())
	copySchema(g, out)
	out.Data = make([]store.Triple, 0, len(d.propElem)) // one edge per property
	for p, pe := range d.propElem {
		out.Data = append(out.Data, store.Triple{S: name(d.uf.Find(pe)), P: p, O: name(d.uf.Find(pe + 1))})
	}
	nodeOf := make(map[dict.ID]dict.ID, len(d.elemOf))
	for n, e := range d.elemOf {
		nodeOf[n] = name(d.uf.Find(e))
	}
	summarizeTypesWeak(g, out, rep, nodeOf)
	return &Summary{Graph: out, NodeOf: nodeOf}
}

// summarizeTypesWeak is Algorithm 3, shared by the weak and strong
// kinds: types of represented nodes attach to their representative;
// typed-only resources (no data properties at all, hence TC = SC = ∅)
// collapse into the single node Nτ = N(∅,∅) carrying all their classes.
func summarizeTypesWeak(g *store.Graph, out *store.Graph, rep *representer, nodeOf map[dict.ID]dict.ID) {
	v := g.Vocab()
	typeEdges := make(map[store.Triple]bool)
	var typedOnly []store.Triple
	for _, t := range g.Types {
		if d, ok := nodeOf[t.S]; ok {
			typeEdges[store.Triple{S: d, P: v.Type, O: t.O}] = true
			continue
		}
		typedOnly = append(typedOnly, t)
	}
	if len(typedOnly) > 0 {
		ntau := rep.node(nil, nil)
		for _, t := range typedOnly {
			nodeOf[t.S] = ntau
			typeEdges[store.Triple{S: ntau, P: v.Type, O: t.O}] = true
		}
	}
	for e := range typeEdges {
		out.Types = append(out.Types, e)
	}
}

// WeakBuilder maintains a weak summary incrementally under triple
// insertions — the weak kind of the quotient engine (see engine.go), kept
// as a concrete facade. Use NewBuilder for the kind-generic interface.
//
// Usage:
//
//	b := core.NewWeakBuilder()
//	for _, t := range stream { b.Add(t) }
//	s := b.Summary()          // snapshot; the builder stays usable
//
// Snapshots are identical to Summarize of the same triple set (see
// builder_test.go); data deletions are the only operation requiring a
// rebuild — merges are not invertible, as the paper's merge-based design
// implies.
type WeakBuilder struct {
	set *BuilderSet
}

// NewWeakBuilder returns an empty builder with a fresh dictionary.
func NewWeakBuilder() *WeakBuilder {
	return NewWeakBuilderWithGraph(store.NewGraph())
}

// NewWeakBuilderWithGraph returns a builder seeded with g's triples. The
// graph is not copied: later Add calls append to it.
func NewWeakBuilderWithGraph(g *store.Graph) *WeakBuilder {
	set, err := NewBuilderSet(g, []Kind{Weak})
	if err != nil {
		panic(err) // unreachable: Weak is always a valid kind
	}
	return &WeakBuilder{set: set}
}

// Add routes one string-level triple into the builder.
func (b *WeakBuilder) Add(t rdf.Triple) { b.set.Add(t) }

// AddEncoded routes one encoded triple into the builder. The IDs must
// come from Graph().Dict().
func (b *WeakBuilder) AddEncoded(s, p, o dict.ID) { b.set.AddEncoded(s, p, o) }

// Delete removes every stored copy of t, reporting how many copies
// existed. A data deletion defers one counted rebuild to the next
// Summary/Classes call (weak merges are not invertible).
func (b *WeakBuilder) Delete(t rdf.Triple) int { return b.set.Delete(t) }

// Graph exposes the accumulated input graph.
func (b *WeakBuilder) Graph() *store.Graph { return b.set.Graph() }

// Classes reports the current number of weak equivalence classes among
// nodes with data properties (cheap: no summary materialization).
func (b *WeakBuilder) Classes() int {
	return b.set.driver(Weak).(*weakDriver).classCount()
}

// Summary materializes the current weak summary. The builder remains
// valid and can keep absorbing triples; snapshots are independent.
func (b *WeakBuilder) Summary() *Summary {
	s, err := b.set.Summary(Weak)
	if err != nil {
		panic(err) // unreachable: the set maintains Weak by construction
	}
	return s
}
