package core

// batch_oracle_test.go holds the batch constructions of the five summary
// kinds: one pass per kind over a complete graph, sharing only the
// representation function with the incremental engine. They are the
// independent oracle the engine's property tests compare against —
// production summaries come from the engine alone (see engine.go).

import (
	"slices"
	"sort"

	"rdfsum/internal/cliques"
	"rdfsum/internal/dict"
	"rdfsum/internal/store"
	"rdfsum/internal/unionfind"
)

// batchSummarize builds the summary of g of the requested kind with the
// batch constructions.
func batchSummarize(g *store.Graph, kind Kind) *Summary {
	g.Ensure() // summarization walks every component
	var s *Summary
	switch kind {
	case Weak:
		s = weakIncremental(g)
	case Strong:
		s = strong(g)
	case TypeBased:
		s = typeBased(g)
	case TypedWeak:
		s = typedWeak(g)
	case TypedStrong:
		s = typedStrong(g)
	default:
		panic("core: unknown summary kind")
	}
	return finishBatch(g, kind, s)
}

// finishBatch fills the fields every batch construction leaves to its
// caller and puts the summary graph in canonical order.
func finishBatch(g *store.Graph, kind Kind, s *Summary) *Summary {
	s.Kind = kind
	s.Input = g
	s.Graph.SortDedup()
	s.Stats = computeStats(g, s.Graph)
	return s
}

// weakIncremental implements the paper's Algorithms 1–3: a single pass
// over the data triples that unifies, per data property, one untyped
// source representative and one target representative, merging nodes on
// the fly (GETSOURCE / GETTARGET / MERGEDATANODES), followed by a pass
// over the type triples (Algorithm 3).
//
// The per-node "replace the node with fewer edges" merge of the paper is
// realized with a union-find, which preserves the algorithm's O(|G| α)
// cost while avoiding explicit edge rewriting.
func weakIncremental(g *store.Graph) *Summary {
	uf := &unionfind.UF{}
	elemOf := make(map[dict.ID]int32)  // G data node  -> forest element
	srcElem := make(map[dict.ID]int32) // data property -> source element (dpSrc)
	tgtElem := make(map[dict.ID]int32) // data property -> target element (dpTarg)

	elem := func(m map[dict.ID]int32, key dict.ID) int32 {
		if e, ok := m[key]; ok {
			return e
		}
		e := uf.Add()
		m[key] = e
		return e
	}

	// Algorithm 1: summarize data triples. Each triple forces its subject
	// to coincide with p's unique source node and its object with p's
	// unique target node (Property 4: one data edge per property).
	for _, t := range g.Data {
		uf.Union(elem(elemOf, t.S), elem(srcElem, t.P))
		uf.Union(elem(elemOf, t.O), elem(tgtElem, t.P))
	}

	// The in/out property sets of each equivalence class: the unions of
	// the members' target and source cliques (§4.1's N(∪TC, ∪SC)).
	inProps := make(map[int32][]dict.ID)
	outProps := make(map[int32][]dict.ID)
	for p, e := range srcElem {
		root := uf.Find(e)
		outProps[root] = append(outProps[root], p)
	}
	for p, e := range tgtElem {
		root := uf.Find(e)
		inProps[root] = append(inProps[root], p)
	}

	rep := newRepresenter(g, Weak)
	nameOf := make(map[int32]dict.ID)
	for _, e := range elemOf {
		root := uf.Find(e)
		if _, ok := nameOf[root]; !ok {
			nameOf[root] = rep.node(inProps[root], outProps[root])
		}
	}

	out := store.NewGraphWithDict(g.Dict())
	copySchema(g, out)

	// One data edge per distinct property, emitted in sorted property
	// order for determinism.
	props := make([]dict.ID, 0, len(srcElem))
	for p := range srcElem {
		props = append(props, p)
	}
	sort.Slice(props, func(i, j int) bool { return props[i] < props[j] })
	for _, p := range props {
		src := nameOf[uf.Find(srcElem[p])]
		tgt := nameOf[uf.Find(tgtElem[p])]
		out.Data = append(out.Data, store.Triple{S: src, P: p, O: tgt})
	}

	nodeOf := make(map[dict.ID]dict.ID, len(elemOf))
	for n, e := range elemOf {
		nodeOf[n] = nameOf[uf.Find(e)]
	}

	summarizeTypesWeak(g, out, rep, nodeOf)
	return &Summary{Graph: out, NodeOf: nodeOf}
}

// weakGlobal derives the weak summary from explicitly computed property
// cliques: the weak equivalence classes are the connected components of
// the bipartite "clique incidence" graph linking a node's source clique to
// its target clique. It is the independent oracle for the incremental
// algorithm (both must produce identical summaries).
func weakGlobal(g *store.Graph) *Summary {
	asg := computeCliques(g)

	nSrc := len(asg.SrcMembers)
	nTgt := len(asg.TgtMembers)
	uf := unionfind.New(nSrc + nTgt)
	for n, sc := range asg.NodeSrc {
		tc := asg.NodeTgt[n]
		if sc >= 0 && tc >= 0 {
			uf.Union(int32(sc), int32(nSrc+tc))
		}
	}

	// Component property sets.
	inProps := make(map[int32][]dict.ID)
	outProps := make(map[int32][]dict.ID)
	for i, members := range asg.SrcMembers {
		root := uf.Find(int32(i))
		outProps[root] = append(outProps[root], members...)
	}
	for i, members := range asg.TgtMembers {
		root := uf.Find(int32(nSrc + i))
		inProps[root] = append(inProps[root], members...)
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

	for _, p := range asg.Props {
		src := name(uf.Find(int32(asg.SrcOf[p])))
		tgt := name(uf.Find(int32(nSrc + asg.TgtOf[p])))
		out.Data = append(out.Data, store.Triple{S: src, P: p, O: tgt})
	}

	nodeOf := make(map[dict.ID]dict.ID, len(asg.NodeSrc))
	for n, sc := range asg.NodeSrc {
		var root int32
		if sc >= 0 {
			root = uf.Find(int32(sc))
		} else {
			root = uf.Find(int32(nSrc + asg.NodeTgt[n]))
		}
		nodeOf[n] = name(root)
	}

	summarizeTypesWeak(g, out, rep, nodeOf)
	return &Summary{Graph: out, NodeOf: nodeOf}
}

// computeCliques centralizes the clique computation over a graph's data
// component (Definition 5).
func computeCliques(g *store.Graph) *cliques.Assignment {
	return cliques.Compute(g.Data)
}

// strong implements the strong summary S_G (Definition 15): data nodes are
// equivalent iff they have the same source clique AND the same target
// clique, so each summary node is in bijection with an observed
// (target clique, source clique) pair and is named N(TC, SC). Unlike the
// weak summary, a property may label several summary edges (one per pair
// of endpoint equivalence classes, §5.1).
func strong(g *store.Graph) *Summary {
	asg := computeCliques(g)
	rep := newRepresenter(g, Strong)

	// Summary node per observed (tc, sc) pair.
	type pair struct{ tc, sc int }
	nameOf := make(map[pair]dict.ID)
	name := func(tc, sc int) dict.ID {
		key := pair{tc, sc}
		if id, ok := nameOf[key]; ok {
			return id
		}
		var in, out []dict.ID
		if tc != cliques.NoClique {
			in = asg.TgtMembers[tc]
		}
		if sc != cliques.NoClique {
			out = asg.SrcMembers[sc]
		}
		id := rep.node(in, out)
		nameOf[key] = id
		return id
	}

	nodeOf := make(map[dict.ID]dict.ID, len(asg.NodeSrc))
	for n, sc := range asg.NodeSrc {
		nodeOf[n] = name(asg.NodeTgt[n], sc)
	}

	out := store.NewGraphWithDict(g.Dict())
	copySchema(g, out)

	dataEdges := make(map[store.Triple]bool, len(g.Data))
	for _, t := range g.Data {
		e := store.Triple{S: nodeOf[t.S], P: t.P, O: nodeOf[t.O]}
		if !dataEdges[e] {
			dataEdges[e] = true
			out.Data = append(out.Data, e)
		}
	}

	summarizeTypesWeak(g, out, rep, nodeOf)
	return &Summary{Graph: out, NodeOf: nodeOf}
}

// classSetsOf returns, for every typed resource of g (subject of a T_G
// triple), its sorted, deduplicated class set. Typed resources are
// exactly the keys of the returned map.
func classSetsOf(g *store.Graph) map[dict.ID][]dict.ID {
	sets := make(map[dict.ID][]dict.ID)
	for _, t := range g.Types {
		sets[t.S] = append(sets[t.S], t.O)
	}
	for n, classes := range sets {
		slices.Sort(classes)
		out := classes[:0]
		for i, c := range classes {
			if i == 0 || c != classes[i-1] {
				out = append(out, c)
			}
		}
		sets[n] = out
	}
	return sets
}

// emitClassSetTypes adds, for every distinct class set X among the typed
// resources, the triples C(X) τ c for each c ∈ X. This models the summary
// type edges of the type-first summaries (the dcls structure of §6.1).
func emitClassSetTypes(g *store.Graph, out *store.Graph, rep *representer, sets map[dict.ID][]dict.ID) {
	v := g.Vocab()
	emitted := make(map[dict.ID]bool)
	for _, set := range sets {
		node := rep.classSetNode(set)
		if emitted[node] {
			continue
		}
		emitted[node] = true
		for _, c := range set {
			out.Types = append(out.Types, store.Triple{S: node, P: v.Type, O: c})
		}
	}
}

// typeBased implements the type-based helper summary T_G (Definition 12):
// the quotient by ≡T. Typed resources with the same non-empty class set X
// collapse into C(X); every untyped resource is equivalent only to itself
// and is represented by a fresh node C(∅) (a distinct URI per call,
// content-addressed on the represented node).
func typeBased(g *store.Graph) *Summary {
	sets := classSetsOf(g)
	rep := newRepresenter(g, TypeBased)

	nodeOf := make(map[dict.ID]dict.ID, len(sets))
	for n, set := range sets {
		nodeOf[n] = rep.classSetNode(set)
	}
	nodeFor := func(n dict.ID) dict.ID {
		if id, ok := nodeOf[n]; ok {
			return id
		}
		id := rep.freshCopy(n)
		nodeOf[n] = id
		return id
	}

	out := store.NewGraphWithDict(g.Dict())
	copySchema(g, out)

	edges := make(map[store.Triple]bool, len(g.Data))
	for _, t := range g.Data {
		e := store.Triple{S: nodeFor(t.S), P: t.P, O: nodeFor(t.O)}
		if !edges[e] {
			edges[e] = true
			out.Data = append(out.Data, e)
		}
	}
	emitClassSetTypes(g, out, rep, sets)
	return &Summary{Graph: out, NodeOf: nodeOf}
}

// typedWeak implements the typed weak summary TW_G (Definition 14), the
// untyped-weak summary of the type-based summary: typed resources group by
// their exact class set into C(X) nodes; untyped resources are summarized
// weakly among themselves.
//
// Following the paper's §6 implementation semantics, only untyped nodes
// feed the per-property source/target representatives ("in TW_G only
// untyped data nodes may be merged, so the typed data nodes … will not be
// stored in these structures"): a property has at most one untyped source
// node and one untyped target node, and typed nodes never bridge cliques.
func typedWeak(g *store.Graph) *Summary {
	sets := classSetsOf(g)

	uf := &unionfind.UF{}
	elemOf := make(map[dict.ID]int32)
	srcElem := make(map[dict.ID]int32)
	tgtElem := make(map[dict.ID]int32)
	elem := func(m map[dict.ID]int32, key dict.ID) int32 {
		if e, ok := m[key]; ok {
			return e
		}
		e := uf.Add()
		m[key] = e
		return e
	}
	for _, t := range g.Data {
		if _, typed := sets[t.S]; !typed {
			uf.Union(elem(elemOf, t.S), elem(srcElem, t.P))
		}
		if _, typed := sets[t.O]; !typed {
			uf.Union(elem(elemOf, t.O), elem(tgtElem, t.P))
		}
	}

	inProps := make(map[int32][]dict.ID)
	outProps := make(map[int32][]dict.ID)
	for p, e := range srcElem {
		root := uf.Find(e)
		outProps[root] = append(outProps[root], p)
	}
	for p, e := range tgtElem {
		root := uf.Find(e)
		inProps[root] = append(inProps[root], p)
	}

	rep := newRepresenter(g, TypedWeak)
	nameOf := make(map[int32]dict.ID)
	nodeOf := make(map[dict.ID]dict.ID, len(sets)+len(elemOf))
	for n, set := range sets {
		nodeOf[n] = rep.classSetNode(set)
	}
	for n, e := range elemOf {
		root := uf.Find(e)
		id, ok := nameOf[root]
		if !ok {
			id = rep.node(inProps[root], outProps[root])
			nameOf[root] = id
		}
		nodeOf[n] = id
	}

	out := store.NewGraphWithDict(g.Dict())
	copySchema(g, out)

	edges := make(map[store.Triple]bool, len(g.Data))
	for _, t := range g.Data {
		e := store.Triple{S: nodeOf[t.S], P: t.P, O: nodeOf[t.O]}
		if !edges[e] {
			edges[e] = true
			out.Data = append(out.Data, e)
		}
	}
	emitClassSetTypes(g, out, rep, sets)
	return &Summary{Graph: out, NodeOf: nodeOf}
}

// typedStrong implements the typed strong summary TS_G (Definition 17),
// the untyped-strong summary of the type-based summary: typed resources
// group by class set into C(X); untyped resources group by their
// (target clique, source clique) pair, with cliques computed over untyped
// adjacencies only ("for the typed strong summary cliques are computed
// only for untyped data nodes", §6.1).
func typedStrong(g *store.Graph) *Summary {
	sets := classSetsOf(g)
	asg := cliques.ComputeRestricted(g.Data, func(n dict.ID) bool {
		_, typed := sets[n]
		return typed
	})

	rep := newRepresenter(g, TypedStrong)
	type pair struct{ tc, sc int }
	nameOf := make(map[pair]dict.ID)
	name := func(tc, sc int) dict.ID {
		key := pair{tc, sc}
		if id, ok := nameOf[key]; ok {
			return id
		}
		var in, out []dict.ID
		if tc != cliques.NoClique {
			in = asg.TgtMembers[tc]
		}
		if sc != cliques.NoClique {
			out = asg.SrcMembers[sc]
		}
		id := rep.node(in, out)
		nameOf[key] = id
		return id
	}

	nodeOf := make(map[dict.ID]dict.ID, len(sets)+len(asg.NodeSrc))
	for n, set := range sets {
		nodeOf[n] = rep.classSetNode(set)
	}
	for n, sc := range asg.NodeSrc {
		nodeOf[n] = name(asg.NodeTgt[n], sc)
	}

	out := store.NewGraphWithDict(g.Dict())
	copySchema(g, out)

	edges := make(map[store.Triple]bool, len(g.Data))
	for _, t := range g.Data {
		e := store.Triple{S: nodeOf[t.S], P: t.P, O: nodeOf[t.O]}
		if !edges[e] {
			edges[e] = true
			out.Data = append(out.Data, e)
		}
	}
	emitClassSetTypes(g, out, rep, sets)
	return &Summary{Graph: out, NodeOf: nodeOf}
}
