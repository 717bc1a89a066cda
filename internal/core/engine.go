package core

// engine.go is the unified incremental quotient engine: one Builder
// interface over five per-kind drivers that maintain their summary under
// triple insertions, sharing a single accumulated graph, one class-set
// tracker and one adjacency index when several kinds are built together.
//
// The design generalizes the paper's observation behind Algorithms 1–3
// (the weak summary is maintainable one triple at a time) to every
// quotient the paper defines:
//
//   - Equivalence classes only MERGE under insertion for the weak
//     relation and for property cliques, so those structures are
//     union-finds whose stale references are reconciled lazily (Find) at
//     snapshot time.
//   - The only non-merge class changes are per-node MIGRATIONS: a node
//     acquiring its first source/target clique (strong kinds), its first
//     type (typed kinds take the node out of the untyped partition), or a
//     grown class set. Migrations re-key exactly the node's incident
//     edges, using the adjacency index (built on the first migration) —
//     O(degree), never O(|G|).
//   - A late-typed node that already related properties inside the
//     untyped partition (typed-weak/typed-strong) cannot be removed from
//     a union-find, so the affected driver marks itself dirty and
//     reconstructs its state on the next snapshot — the one event class
//     that costs O(|G|), counted and reported via Rebuilds. Streams that
//     type nodes before giving them data edges never pay it.
//
// Seeding a builder with an existing graph is the drivers' rebuild: one
// pass settles the equivalence structures over the whole data component,
// a second keys each triple once, so a seeded driver never re-keys a node.
// Summarize is exactly that seeding followed by one snapshot — the engine
// is the library's only summary construction. Its tests compare every
// snapshot with independent batch constructions kept as a test-only
// oracle (batch_oracle_test.go).
//
// Snapshots are cheap and non-destructive: Summary() materializes the
// current summary from the incremental state — equivalence structures are
// read through Find, never recomputed; only the input size measures of
// Stats scan the graph — and the builder keeps absorbing triples, which
// is what makes the engine epoch-friendly for the live subsystem.

import (
	"fmt"
	"sort"

	"rdfsum/internal/dict"
	"rdfsum/internal/rdf"
	"rdfsum/internal/store"
)

// Builder maintains one summary kind incrementally under triple
// insertions and deletions. Snapshots (Summary) are independent of one
// another and do not freeze the builder. Insertions cost O(α) amortized;
// deletions are exact and O(degree) where the kind's bookkeeping is
// refcounted (type-based always; typed kinds when only typed nodes are
// involved) and otherwise mark the kind dirty for a counted rebuild that
// is deferred to the next Summary call — quotient merges (union-finds)
// are not invertible.
type Builder interface {
	// Kind reports the maintained summary kind.
	Kind() Kind
	// Add routes one string-level triple into the builder.
	Add(t rdf.Triple)
	// AddEncoded routes one encoded triple (IDs from Graph().Dict()).
	AddEncoded(s, p, o dict.ID)
	// Delete removes every stored copy of t, reporting how many copies
	// existed. The summary state shrinks exactly or defers a rebuild to
	// the next Summary call (see Rebuilds).
	Delete(t rdf.Triple) int
	// Graph exposes the accumulated input graph.
	Graph() *store.Graph
	// Summary materializes the current summary; the builder stays usable.
	Summary() *Summary
	// Rebuilds counts the internal full reconstructions forced by
	// late-typing events or non-invertible deletions (0 for kinds that
	// never need one).
	Rebuilds() uint64
}

// driver is the per-kind half of the engine: it reacts to appended and
// deleted data and type triples and materializes summaries from its
// incremental state.
type driver interface {
	kind() Kind
	needsClasses() bool
	// rebuild derives the driver's whole state from the graph and the
	// class-set tracker. It seeds a new builder set and pays a deferred
	// rebuild (the caller counts the latter).
	rebuild()
	// dataAdded reacts to g.Data[i] == t, appended just now. The shared
	// adjacency index, if built, does not yet contain t.
	dataAdded(i int32, t store.Triple)
	// typeAdded reacts to an appended type triple, after the shared
	// class-set tracker (if any) absorbed it.
	typeAdded(ev typeEvent)
	// dataDeleted reacts to the pending removal of g.Data[i] == t: the
	// driver either decrements its refcounted bookkeeping exactly or
	// marks itself dirty. Positions are pre-compaction; the shared
	// adjacency index still contains t.
	dataDeleted(i int32, t store.Triple)
	// dataCompacted runs after the data component dropped the deleted
	// positions (remap[i] = new index or -1): per-position bookkeeping
	// must renumber. The shared adjacency index is already remapped.
	dataCompacted(remap []int32)
	// typeDeleted reacts to a deleted type triple, after the shared
	// class-set tracker shrank the node's set.
	typeDeleted(ev typeEvent)
	snapshot() *Summary
	rebuilds() uint64
}

// BuilderSet maintains several summary kinds over one shared graph with
// one pass per inserted triple: the class-set tracker and the adjacency
// index are computed once and shared by every driver, instead of
// re-derived per kind.
type BuilderSet struct {
	g       *store.Graph
	adj     *adjacency       // nil until a driver re-represents a node
	fed     int              // g.Data[:fed] has reached the drivers
	classes *classSetTracker // nil unless a typed kind is maintained
	drivers []driver
}

// NewBuilderSet returns a builder set over g maintaining the given kinds
// (deduplicated; the empty set is allowed and maintains nothing). The
// graph is adopted, not copied: its existing triples seed the drivers —
// the class sets absorb the type component first, then each driver
// rebuilds over the data component — and later Add calls append to it.
func NewBuilderSet(g *store.Graph, kinds []Kind) (*BuilderSet, error) {
	bs := &BuilderSet{g: g}
	for _, k := range kinds {
		if int(k) < 0 || int(k) >= NumKinds {
			return nil, fmt.Errorf("core: unknown summary kind %d", int(k))
		}
		if bs.driver(k) != nil {
			continue
		}
		// Drivers start empty: the seeding below is their first rebuild.
		var d driver
		switch k {
		case Weak:
			d = &weakDriver{bs: bs}
		case Strong:
			d = &strongDriver{bs: bs, edges: &edgeTracker{}}
		case TypeBased:
			d = &typeBasedDriver{bs: bs, edges: &edgeTracker{}}
		case TypedWeak:
			d = &typedWeakDriver{bs: bs, edges: &edgeTracker{}}
		case TypedStrong:
			d = &typedStrongDriver{bs: bs, edges: &edgeTracker{}}
		}
		bs.drivers = append(bs.drivers, d)
	}
	for _, d := range bs.drivers {
		if d.needsClasses() && bs.classes == nil {
			bs.classes = newClassSetTracker()
		}
	}
	if len(bs.drivers) > 0 {
		// Seeding walks both components, so a snapshot-backed graph must
		// materialize first. With no maintained kinds there is nothing to
		// seed and the graph can stay unmaterialized — the O(1) open path.
		g.Ensure()
		if bs.classes != nil {
			for _, t := range g.Types {
				bs.classes.addType(t.S, t.O)
			}
		}
		for _, d := range bs.drivers {
			d.rebuild()
		}
		bs.fed = len(g.Data)
	}
	return bs, nil
}

// Graph exposes the shared accumulated graph.
func (bs *BuilderSet) Graph() *store.Graph { return bs.g }

// driver returns the driver maintaining kind, or nil.
func (bs *BuilderSet) driver(kind Kind) driver {
	for _, d := range bs.drivers {
		if d.kind() == kind {
			return d
		}
	}
	return nil
}

// Kinds lists the maintained kinds in canonical order.
func (bs *BuilderSet) Kinds() []Kind {
	out := make([]Kind, 0, len(bs.drivers))
	for _, k := range Kinds {
		if bs.driver(k) != nil {
			out = append(out, k)
		}
	}
	return out
}

// Maintains reports whether kind is maintained by this set.
func (bs *BuilderSet) Maintains(kind Kind) bool { return bs.driver(kind) != nil }

// Add routes one string-level triple into the graph and every driver.
func (bs *BuilderSet) Add(t rdf.Triple) {
	d, ty := len(bs.g.Data), len(bs.g.Types)
	bs.g.Add(t)
	bs.route(d, ty)
}

// AddEncoded routes one encoded triple (IDs from Graph().Dict()).
func (bs *BuilderSet) AddEncoded(s, p, o dict.ID) {
	d, ty := len(bs.g.Data), len(bs.g.Types)
	bs.g.AddEncoded(s, p, o)
	bs.route(d, ty)
}

func (bs *BuilderSet) route(d, ty int) {
	switch {
	case len(bs.g.Data) > d:
		bs.feedData(int32(d))
	case len(bs.g.Types) > ty:
		bs.feedType(int32(ty))
	default:
		// Schema triples need no driver action: rule SCH copies the
		// schema component verbatim at snapshot time.
	}
}

func (bs *BuilderSet) feedData(i int32) {
	t := bs.g.Data[i]
	for _, d := range bs.drivers {
		d.dataAdded(i, t)
	}
	if bs.adj != nil {
		bs.adj.add(t, i)
	}
	bs.fed = int(i) + 1
}

func (bs *BuilderSet) feedType(i int32) {
	t := bs.g.Types[i]
	var ev typeEvent
	if bs.classes != nil {
		ev = bs.classes.addType(t.S, t.O)
	}
	for _, d := range bs.drivers {
		d.typeAdded(ev)
	}
}

// Delete removes every stored copy of one string-level triple, reporting
// how many copies existed.
func (bs *BuilderSet) Delete(t rdf.Triple) int {
	n, _ := bs.DeleteBatch([]rdf.Triple{t})
	return n
}

// DeleteBatch removes every stored copy of each listed triple from the
// graph and every driver's state. It returns the number of triple copies
// removed and the distinct encoded triples that were actually present —
// the tombstone set an index overlay needs.
//
// The graph's affected components are compacted into fresh slices
// (copy-on-write: live-store snapshot views of the old slices are
// unaffected), an O(component) scan. Driver state shrinks exactly where
// the bookkeeping is refcounted — type-based always; class-set shrink for
// every typed kind; typed-weak/typed-strong when only typed nodes are
// involved — and otherwise the driver marks itself dirty and defers a
// counted rebuild to its next snapshot, because quotient merges
// (union-finds) are not invertible.
func (bs *BuilderSet) DeleteBatch(triples []rdf.Triple) (int, []store.Triple) {
	bs.g.Ensure() // the compaction scan below walks every component
	d := bs.g.Dict()
	v := bs.g.Vocab()
	var delData, delTypes, delSchema map[store.Triple]bool
	for _, tr := range triples {
		s, okS := d.Lookup(tr.S)
		p, okP := d.Lookup(tr.P)
		o, okO := d.Lookup(tr.O)
		if !okS || !okP || !okO {
			continue // an unseen term cannot be part of a stored triple
		}
		t := store.Triple{S: s, P: p, O: o}
		switch v.ComponentOf(p) {
		case store.CompTypes:
			if delTypes == nil {
				delTypes = make(map[store.Triple]bool)
			}
			delTypes[t] = true
		case store.CompSchema:
			if delSchema == nil {
				delSchema = make(map[store.Triple]bool)
			}
			delSchema[t] = true
		default:
			if delData == nil {
				delData = make(map[store.Triple]bool)
			}
			delData[t] = true
		}
	}

	removed := 0
	var tombs []store.Triple

	// Data deletions first, so the adjacency index and per-position keys
	// reflect the surviving data triples before type events re-key.
	if len(delData) > 0 {
		remap := make([]int32, len(bs.g.Data))
		kept := make([]store.Triple, 0, len(bs.g.Data))
		hit := make(map[store.Triple]bool, len(delData))
		for i, t := range bs.g.Data {
			if delData[t] {
				remap[i] = -1
				removed++
				hit[t] = true
				for _, dr := range bs.drivers {
					dr.dataDeleted(int32(i), t)
				}
			} else {
				remap[i] = int32(len(kept))
				kept = append(kept, t)
			}
		}
		if len(hit) > 0 {
			bs.g.Data = kept
			bs.fed = len(kept)
			if bs.adj != nil {
				bs.adj.remap(remap)
			}
			for _, dr := range bs.drivers {
				dr.dataCompacted(remap)
			}
			tombs = appendSortedTriples(tombs, hit)
		}
	}

	// Type deletions: compact the component, then shrink the class sets
	// pair by pair (deterministically ordered) and let drivers migrate.
	if len(delTypes) > 0 {
		kept := make([]store.Triple, 0, len(bs.g.Types))
		hit := make(map[store.Triple]bool, len(delTypes))
		for _, t := range bs.g.Types {
			if delTypes[t] {
				removed++
				hit[t] = true
			} else {
				kept = append(kept, t)
			}
		}
		if len(hit) > 0 {
			bs.g.Types = kept
			pairs := make([]store.Triple, 0, len(hit))
			for t := range hit {
				pairs = append(pairs, t)
			}
			sort.Slice(pairs, func(i, j int) bool { return pairs[i].Less(pairs[j]) })
			for _, t := range pairs {
				var ev typeEvent
				if bs.classes != nil {
					ev = bs.classes.removeType(t.S, t.O)
				}
				for _, dr := range bs.drivers {
					dr.typeDeleted(ev)
				}
			}
			tombs = appendSortedTriples(tombs, hit)
		}
	}

	// Schema deletions need no driver action: rule SCH copies the schema
	// component verbatim at snapshot time, and it just shrank.
	if len(delSchema) > 0 {
		kept := make([]store.Triple, 0, len(bs.g.Schema))
		hit := make(map[store.Triple]bool, len(delSchema))
		for _, t := range bs.g.Schema {
			if delSchema[t] {
				removed++
				hit[t] = true
			} else {
				kept = append(kept, t)
			}
		}
		if len(hit) > 0 {
			bs.g.Schema = kept
			tombs = appendSortedTriples(tombs, hit)
		}
	}
	return removed, tombs
}

// appendSortedTriples appends set's members to out in (S, P, O) order.
func appendSortedTriples(out []store.Triple, set map[store.Triple]bool) []store.Triple {
	start := len(out)
	for t := range set {
		out = append(out, t)
	}
	added := out[start:]
	sort.Slice(added, func(i, j int) bool { return added[i].Less(added[j]) })
	return out
}

// Summary materializes the current summary of one maintained kind. The
// set stays usable; snapshots are independent.
func (bs *BuilderSet) Summary(kind Kind) (*Summary, error) {
	d := bs.driver(kind)
	if d == nil {
		return nil, fmt.Errorf("core: kind %v is not maintained by this builder set", kind)
	}
	s := d.snapshot()
	s.Kind = kind
	s.Input = bs.g
	s.Graph.SortDedup()
	s.Stats = computeStats(bs.g, s.Graph)
	return s, nil
}

// Summaries materializes every maintained kind.
func (bs *BuilderSet) Summaries() (map[Kind]*Summary, error) {
	out := make(map[Kind]*Summary, len(bs.drivers))
	for _, k := range bs.Kinds() {
		s, err := bs.Summary(k)
		if err != nil {
			return nil, err
		}
		out[k] = s
	}
	return out, nil
}

// Rebuilds counts the full state reconstructions kind has paid for
// late-typing events (always 0 for weak, strong and type-based).
func (bs *BuilderSet) Rebuilds(kind Kind) uint64 {
	if d := bs.driver(kind); d != nil {
		return d.rebuilds()
	}
	return 0
}

// adjacency returns the endpoint index over the data triples fed so far,
// building it on first use: only a node migration reads it, so a builder
// set that just seeds and snapshots — Summarize — never pays for it.
func (bs *BuilderSet) adjacency() *adjacency {
	if bs.adj == nil {
		bs.adj = newAdjacency()
		for i, t := range bs.g.Data[:bs.fed] {
			bs.adj.add(t, int32(i))
		}
	}
	return bs.adj
}

// rekeyIncident re-keys every data triple incident to n using the
// driver's key function — the migration primitive.
func rekeyIncident(bs *BuilderSet, e *edgeTracker, n dict.ID, key func(store.Triple) edgeKey) {
	bs.adjacency().each(n, func(i int32) {
		e.rekey(i, key(bs.g.Data[i]))
	})
}

// singleBuilder adapts one kind of a BuilderSet to the Builder interface.
type singleBuilder struct {
	set *BuilderSet
	k   Kind
}

// NewBuilder returns an empty incremental builder for kind, over a fresh
// dictionary.
func NewBuilder(kind Kind) (Builder, error) {
	return NewBuilderWithGraph(kind, store.NewGraph())
}

// NewBuilderWithGraph returns an incremental builder for kind seeded with
// g's triples. The graph is adopted, not copied: later Add calls append
// to it.
func NewBuilderWithGraph(kind Kind, g *store.Graph) (Builder, error) {
	set, err := NewBuilderSet(g, []Kind{kind})
	if err != nil {
		return nil, err
	}
	return &singleBuilder{set: set, k: kind}, nil
}

func (b *singleBuilder) Kind() Kind                 { return b.k }
func (b *singleBuilder) Add(t rdf.Triple)           { b.set.Add(t) }
func (b *singleBuilder) AddEncoded(s, p, o dict.ID) { b.set.AddEncoded(s, p, o) }
func (b *singleBuilder) Delete(t rdf.Triple) int    { return b.set.Delete(t) }
func (b *singleBuilder) Graph() *store.Graph        { return b.set.Graph() }
func (b *singleBuilder) Rebuilds() uint64           { return b.set.Rebuilds(b.k) }
func (b *singleBuilder) Summary() *Summary {
	s, err := b.set.Summary(b.k)
	if err != nil {
		panic(err) // unreachable: the set maintains b.k by construction
	}
	return s
}

// SummarizeAll builds the summaries of every requested kind (all five
// when kinds is nil) in one shared pass over g: the clique and class-set
// state feeding the drivers is computed once, not re-derived per kind.
func SummarizeAll(g *store.Graph, kinds []Kind) (map[Kind]*Summary, error) {
	if kinds == nil {
		kinds = Kinds
	}
	set, err := NewBuilderSet(g, kinds)
	if err != nil {
		return nil, err
	}
	return set.Summaries()
}
