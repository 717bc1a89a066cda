package core

import (
	"reflect"
	"testing"
	"testing/quick"

	"rdfsum/internal/datagen"
	"rdfsum/internal/samples"
	"rdfsum/internal/saturate"
	"rdfsum/internal/store"
)

// summarizeSaturated builds H_{G∞}.
func summarizeSaturated(t *testing.T, g *store.Graph, k Kind) *Summary {
	t.Helper()
	return summarize(t, saturate.Graph(g), k)
}

// shortcut builds H_{(H_G)∞}: summarize, saturate the (small) summary,
// summarize again — the cheap path Props. 5 and 8 legitimize.
func shortcut(t *testing.T, g *store.Graph, k Kind) *Summary {
	t.Helper()
	s := summarize(t, g, k)
	return summarize(t, saturate.Graph(s.Graph), k)
}

// TestProposition5WeakCompleteness: W_{G∞} = W_{(W_G)∞}, on the Figure 5
// trace and the other sample graphs.
func TestProposition5WeakCompleteness(t *testing.T) {
	for name, g := range sampleGraphs() {
		direct := summarizeSaturated(t, g, Weak)
		cheap := shortcut(t, g, Weak)
		if !reflect.DeepEqual(direct.Graph.CanonicalStrings(), cheap.Graph.CanonicalStrings()) {
			t.Errorf("%s: weak completeness violated:\nW(G∞):      %v\nW((W_G)∞): %v",
				name, direct.Graph.CanonicalStrings(), cheap.Graph.CanonicalStrings())
		}
	}
}

// TestProposition8StrongCompleteness: S_{G∞} = S_{(S_G)∞}, on the
// Figure 10 trace and the other sample graphs.
func TestProposition8StrongCompleteness(t *testing.T) {
	for name, g := range sampleGraphs() {
		direct := summarizeSaturated(t, g, Strong)
		cheap := shortcut(t, g, Strong)
		if !reflect.DeepEqual(direct.Graph.CanonicalStrings(), cheap.Graph.CanonicalStrings()) {
			t.Errorf("%s: strong completeness violated:\nS(G∞):      %v\nS((S_G)∞): %v",
				name, direct.Graph.CanonicalStrings(), cheap.Graph.CanonicalStrings())
		}
	}
}

// TestCompletenessRandom drives Props. 5 and 8 over the random corpus,
// including graphs with subproperty chains and domain/range constraints.
func TestCompletenessRandom(t *testing.T) {
	f := func(seed uint64) bool {
		g := datagen.RandomGraph(datagen.FromQuickSeed(seed))
		for _, kind := range []Kind{Weak, Strong} {
			direct := MustSummarize(saturate.Graph(g), kind)
			s := MustSummarize(g, kind)
			cheap := MustSummarize(saturate.Graph(s.Graph), kind)
			if !reflect.DeepEqual(direct.Graph.CanonicalStrings(), cheap.Graph.CanonicalStrings()) {
				t.Logf("seed %d kind %v: completeness violated", seed, kind)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestProposition7TypedWeakNonCompleteness replays the Figure 8
// counter-example: a ←↩d c turns r1 into a typed resource of G∞, so
// TW_{G∞} represents it by a class-set node, while TW_G had merged r1 and
// r2 as untyped weak-equivalent nodes — TW_{G∞} ≠ TW_{(TW_G)∞}.
func TestProposition7TypedWeakNonCompleteness(t *testing.T) {
	g := samples.Fig8()
	direct := summarizeSaturated(t, g, TypedWeak)
	cheap := shortcut(t, g, TypedWeak)
	if reflect.DeepEqual(direct.Graph.CanonicalStrings(), cheap.Graph.CanonicalStrings()) {
		t.Fatal("Figure 8 counter-example failed to separate TW_{G∞} from TW_{(TW_G)∞}")
	}

	// In TW_{G∞}, r2 stays untyped while r1 becomes typed: they must be
	// represented by different nodes.
	r1 := lookup(t, direct.Input, "r1")
	r2 := lookup(t, direct.Input, "r2")
	if direct.NodeOf[r1] == direct.NodeOf[r2] {
		t.Error("TW_{G∞} must separate the typed r1 from the untyped r2")
	}

	// Before saturation, TW_G merges r1 and r2 (both untyped sources of b).
	plain := summarize(t, g, TypedWeak)
	if plain.NodeOf[r1] != plain.NodeOf[r2] {
		t.Error("TW_G must merge the untyped weak-equivalent r1 and r2")
	}
}

// TestProposition10TypedStrongNonCompleteness: the same counter-example
// applies to the typed strong summary.
func TestProposition10TypedStrongNonCompleteness(t *testing.T) {
	g := samples.Fig8()
	direct := summarizeSaturated(t, g, TypedStrong)
	cheap := shortcut(t, g, TypedStrong)
	if reflect.DeepEqual(direct.Graph.CanonicalStrings(), cheap.Graph.CanonicalStrings()) {
		t.Fatal("Figure 8 counter-example failed to separate TS_{G∞} from TS_{(TS_G)∞}")
	}
}

// TestFig5WeakCompletenessShape checks the concrete Figure 5 trace: in
// W_{G∞} = W_{(W_G)∞}, the generalized property b appears exactly once,
// and the b1/b2 sources that were separate in W_G are merged.
func TestFig5WeakCompletenessShape(t *testing.T) {
	g := samples.Fig5()
	plain := summarize(t, g, Weak)
	// In W_G, r1 (source of b1) and r2 (source of b2) are distinct: b1 and
	// b2 are not source-related in G.
	r1 := lookup(t, g, "r1")
	r2 := lookup(t, g, "r2")
	if plain.NodeOf[r1] == plain.NodeOf[r2] {
		t.Error("W_G must keep r1 and r2 apart (no shared clique before saturation)")
	}
	// In W_{G∞}, b1, b2 ≺sp b makes every b-source share a source clique.
	direct := summarizeSaturated(t, g, Weak)
	inf := direct.Input
	ir1, _ := inf.Dict().LookupIRI(samples.NS + "r1")
	ir2, _ := inf.Dict().LookupIRI(samples.NS + "r2")
	if direct.NodeOf[ir1] != direct.NodeOf[ir2] {
		t.Error("W_{G∞} must merge r1 and r2 (both have the generalized property b)")
	}
	// Property 4 still holds on the saturated summary: b appears once.
	b, _ := inf.Dict().LookupIRI(samples.NS + "b")
	count := 0
	for _, e := range direct.Graph.Data {
		if e.P == b {
			count++
		}
	}
	if count != 1 {
		t.Errorf("W_{G∞} has %d b-edges, want exactly 1", count)
	}
}

// TestFig10StrongCompletenessShape: in S_{G∞}, r1, r2 and r3 all acquire
// the generalized property a, fusing their source cliques (Figure 10's
// S_{(S_G)∞} = S_{G∞} panel shows all three source nodes carrying a).
func TestFig10StrongCompletenessShape(t *testing.T) {
	g := samples.Fig10()
	plain := summarize(t, g, Strong)
	// Before saturation: r1 {b,a1}, r2 {c,a1}, r3 {a2} — r3 is separate
	// (a2 shares no resource with b, c, or a1).
	r3 := lookup(t, g, "r3")
	r1 := lookup(t, g, "r1")
	if plain.NodeOf[r1] == plain.NodeOf[r3] {
		t.Error("S_G must keep r1 and r3 apart")
	}
	direct := summarizeSaturated(t, g, Strong)
	inf := direct.Input
	ir1, _ := inf.Dict().LookupIRI(samples.NS + "r1")
	ir2, _ := inf.Dict().LookupIRI(samples.NS + "r2")
	ir3, _ := inf.Dict().LookupIRI(samples.NS + "r3")
	// After saturation all three share the source clique {a,a1,a2,b,c}:
	// r1 and r2 have the same (∅, clique) pair; r3 too (its target clique
	// is also empty).
	if direct.NodeOf[ir1] != direct.NodeOf[ir2] {
		t.Error("S_{G∞} must merge r1 and r2")
	}
	if direct.NodeOf[ir1] != direct.NodeOf[ir3] {
		t.Error("S_{G∞} must merge r3 with r1/r2 (all: empty TC, fused SC)")
	}
}
