package core

import (
	"testing"
	"testing/quick"

	"rdfsum/internal/datagen"
	"rdfsum/internal/dict"
	"rdfsum/internal/store"
)

// TestAccuracyEveryEdgeHasPreimage: accuracy (Prop. 3) rests on the
// summary being a member of its own inverse set — which in particular
// requires the quotient map to be edge-surjective: every data edge and
// every type edge of H_G must be the image of at least one G triple.
// No summary construction may invent connections.
func TestAccuracyEveryEdgeHasPreimage(t *testing.T) {
	check := func(t *testing.T, g *store.Graph, kind Kind) {
		t.Helper()
		s := MustSummarize(g, kind)
		type edge struct{ s, p, o dict.ID }
		images := make(map[edge]bool, len(g.Data))
		for _, tr := range g.Data {
			images[edge{s.NodeOf[tr.S], tr.P, s.NodeOf[tr.O]}] = true
		}
		for _, e := range s.Graph.Data {
			if !images[edge{e.S, e.P, e.O}] {
				t.Errorf("%v summary edge %v has no pre-image triple", kind, e)
			}
		}
		typeImages := make(map[edge]bool, len(g.Types))
		for _, tr := range g.Types {
			typeImages[edge{s.NodeOf[tr.S], tr.P, tr.O}] = true
		}
		for _, e := range s.Graph.Types {
			if !typeImages[edge{e.S, e.P, e.O}] {
				t.Errorf("%v summary type edge %v has no pre-image triple", kind, e)
			}
		}
	}
	for name, g := range sampleGraphs() {
		for _, kind := range Kinds {
			t.Run(name+"/"+kind.String(), func(t *testing.T) { check(t, g, kind) })
		}
	}
	f := func(seed uint64) bool {
		g := datagen.RandomGraph(datagen.FromQuickSeed(seed))
		sub := t
		for _, kind := range Kinds {
			before := testing.Verbose() // no-op; keep closure simple
			_ = before
			check(sub, g, kind)
		}
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestNodeOfCoversExactlyDataNodes: the representation map rd must be
// total on G's data nodes and defined on nothing else.
func TestNodeOfCoversExactlyDataNodes(t *testing.T) {
	f := func(seed uint64) bool {
		g := datagen.RandomGraph(datagen.FromQuickSeed(seed))
		dataNodes := g.DataNodes()
		for _, kind := range Kinds {
			s := MustSummarize(g, kind)
			if len(s.NodeOf) != len(dataNodes) {
				t.Logf("seed %d kind %v: NodeOf has %d entries, want %d",
					seed, kind, len(s.NodeOf), len(dataNodes))
				return false
			}
			for n := range s.NodeOf {
				if !dataNodes[n] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestMembersIsInverseOfNodeOf validates the dr multi-map.
func TestMembersIsInverseOfNodeOf(t *testing.T) {
	for name, g := range sampleGraphs() {
		for _, kind := range Kinds {
			s := MustSummarize(g, kind)
			members := s.Members()
			total := 0
			for rep, ms := range members {
				total += len(ms)
				for _, m := range ms {
					if s.NodeOf[m] != rep {
						t.Errorf("%s/%v: Members and NodeOf disagree on %d", name, kind, m)
					}
				}
			}
			if total != len(s.NodeOf) {
				t.Errorf("%s/%v: Members covers %d nodes, NodeOf %d", name, kind, total, len(s.NodeOf))
			}
		}
	}
}

// TestSummaryIsWellFormedRDF: every summary triple must have a URI in the
// subject and property positions (summaries are RDF graphs, Definition 9).
func TestSummaryIsWellFormedRDF(t *testing.T) {
	for name, g := range sampleGraphs() {
		for _, kind := range Kinds {
			s := MustSummarize(g, kind)
			for _, tr := range s.Graph.Decode() {
				if err := tr.Validate(); err != nil {
					t.Errorf("%s/%v: summary triple invalid: %v", name, kind, err)
				}
				if tr.S.IsLiteral() {
					t.Errorf("%s/%v: literal subject in summary: %v", name, kind, tr)
				}
			}
		}
	}
}
