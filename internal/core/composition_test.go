package core

import (
	"reflect"
	"testing"
	"testing/quick"

	"rdfsum/internal/datagen"
)

// Definitions 14 and 17 define the typed summaries *compositionally*:
// TW_G = UW_{T_G} and TS_G = US_{T_G} — first the type-based summary, then
// the untyped-weak/strong summary of the result. The direct constructions
// in typedweak.go / typedstrong.go must agree with the composition.
//
// On T_G, every typed node is a class-set node C(X) whose class set is
// exactly X, so re-applying the typed constructions to T_G maps C(X) to
// itself and summarizes the untyped copies weakly/strongly — which is
// precisely UW/US. Content-addressed names make the equality literal.

func TestDefinition14TypedWeakIsComposition(t *testing.T) {
	for name, g := range sampleGraphs() {
		direct := summarize(t, g, TypedWeak)
		tb := summarize(t, g, TypeBased)
		composed := summarize(t, tb.Graph, TypedWeak)
		if !reflect.DeepEqual(direct.Graph.CanonicalStrings(), composed.Graph.CanonicalStrings()) {
			t.Errorf("%s: TW_G != UW(T_G):\ndirect:   %v\ncomposed: %v",
				name, direct.Graph.CanonicalStrings(), composed.Graph.CanonicalStrings())
		}
	}
}

func TestDefinition17TypedStrongIsComposition(t *testing.T) {
	for name, g := range sampleGraphs() {
		direct := summarize(t, g, TypedStrong)
		tb := summarize(t, g, TypeBased)
		composed := summarize(t, tb.Graph, TypedStrong)
		if !reflect.DeepEqual(direct.Graph.CanonicalStrings(), composed.Graph.CanonicalStrings()) {
			t.Errorf("%s: TS_G != US(T_G):\ndirect:   %v\ncomposed: %v",
				name, direct.Graph.CanonicalStrings(), composed.Graph.CanonicalStrings())
		}
	}
}

func TestTypedCompositionRandom(t *testing.T) {
	f := func(seed uint64) bool {
		g := datagen.RandomGraph(datagen.FromQuickSeed(seed))
		for _, kind := range []Kind{TypedWeak, TypedStrong} {
			direct := MustSummarize(g, kind)
			tb := MustSummarize(g, TypeBased)
			composed := MustSummarize(tb.Graph, kind)
			if !reflect.DeepEqual(direct.Graph.CanonicalStrings(), composed.Graph.CanonicalStrings()) {
				t.Logf("seed %d kind %v: composition mismatch", seed, kind)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
