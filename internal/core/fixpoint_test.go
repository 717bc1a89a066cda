package core

import (
	"fmt"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"rdfsum/internal/datagen"
	"rdfsum/internal/samples"
	"rdfsum/internal/store"
)

// sampleGraphs are the paper's worked graphs, exercised by most property
// tests below alongside the random corpus.
func sampleGraphs() map[string]*store.Graph {
	return map[string]*store.Graph{
		"fig2":  samples.Fig2(),
		"fig5":  samples.Fig5(),
		"fig8":  samples.Fig8(),
		"fig10": samples.Fig10(),
		"book":  samples.BookGraph(),
	}
}

// TestFixpointProposition2: summarizing a summary yields the summary
// itself (H_{H_G} = H_G), for all quotient kinds, as a literal triple-set
// equality thanks to content-addressed node names. This covers Prop. 2
// (weak, strong) and Props. 6 and 9 (typed weak, typed strong).
func TestFixpointProposition2(t *testing.T) {
	for name, g := range sampleGraphs() {
		for _, kind := range []Kind{Weak, Strong, TypedWeak, TypedStrong} {
			s := summarize(t, g, kind)
			ss := summarize(t, s.Graph, kind)
			if !reflect.DeepEqual(s.Graph.CanonicalStrings(), ss.Graph.CanonicalStrings()) {
				t.Errorf("%s: %v summary is not a fixpoint:\n H: %v\nHH: %v",
					name, kind, s.Graph.CanonicalStrings(), ss.Graph.CanonicalStrings())
			}
		}
	}
}

// TestFixpointPropertyRandom drives Prop. 2/6/9 over the random corpus.
func TestFixpointPropertyRandom(t *testing.T) {
	f := func(seed uint64) bool {
		g := datagen.RandomGraph(datagen.FromQuickSeed(seed))
		for _, kind := range []Kind{Weak, Strong, TypedWeak, TypedStrong} {
			s := MustSummarize(g, kind)
			ss := MustSummarize(s.Graph, kind)
			if !reflect.DeepEqual(s.Graph.CanonicalStrings(), ss.Graph.CanonicalStrings()) {
				t.Logf("seed %d kind %v: fixpoint violated", seed, kind)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestTypeBasedFixpointUpToRenaming: the type-based helper summary is a
// fixpoint up to renaming of the C(∅) copies (fresh URIs per call, so the
// equality cannot be literal). We compare structural invariants.
func TestTypeBasedFixpointUpToRenaming(t *testing.T) {
	for name, g := range sampleGraphs() {
		s := summarize(t, g, TypeBased)
		ss := summarize(t, s.Graph, TypeBased)
		a, b := s.Stats, ss.Stats
		if a.DataNodes != b.DataNodes || a.DataEdges != b.DataEdges ||
			a.TypeEdges != b.TypeEdges || a.ClassNodes != b.ClassNodes {
			t.Errorf("%s: type-based double summary changed sizes: %+v vs %+v", name, a, b)
		}
		if !reflect.DeepEqual(degreeProfile(s.Graph), degreeProfile(ss.Graph)) {
			t.Errorf("%s: type-based double summary changed the degree profile", name)
		}
	}
}

// degreeProfile returns the sorted multiset of (in-degree, out-degree,
// type-degree) node signatures — a renaming-invariant fingerprint.
func degreeProfile(g *store.Graph) []string {
	in := map[uint32]int{}
	out := map[uint32]int{}
	typ := map[uint32]int{}
	for _, t := range g.Data {
		out[uint32(t.S)]++
		in[uint32(t.O)]++
	}
	for _, t := range g.Types {
		typ[uint32(t.S)]++
	}
	nodes := map[uint32]bool{}
	for n := range in {
		nodes[n] = true
	}
	for n := range out {
		nodes[n] = true
	}
	for n := range typ {
		nodes[n] = true
	}
	var profile []string
	for n := range nodes {
		profile = append(profile, fmt.Sprintf("%d/%d/%d", in[n], out[n], typ[n]))
	}
	sort.Strings(profile)
	return profile
}

// TestSummaryOrderInsensitivity: the summary triple set must not depend on
// input triple order (determinism invariant from DESIGN.md).
func TestSummaryOrderInsensitivity(t *testing.T) {
	base := samples.Fig2Triples()
	rev := make([]int, len(base))
	for i := range rev {
		rev[i] = len(base) - 1 - i
	}
	for _, kind := range []Kind{Weak, Strong, TypeBased, TypedWeak, TypedStrong} {
		g1 := store.FromTriples(base)
		shuffled := make([]int, len(base))
		copy(shuffled, rev)
		g2 := store.NewGraph()
		for _, i := range shuffled {
			g2.Add(base[i])
		}
		s1 := summarize(t, g1, kind)
		s2 := summarize(t, g2, kind)
		if !reflect.DeepEqual(s1.Graph.CanonicalStrings(), s2.Graph.CanonicalStrings()) {
			t.Errorf("%v summary depends on input order", kind)
		}
	}
}
