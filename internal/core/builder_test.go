package core

import (
	"math/rand/v2"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"rdfsum/internal/datagen"
	"rdfsum/internal/rdf"
	"rdfsum/internal/samples"
	"rdfsum/internal/store"
)

// TestBuilderMatchesBatch: streaming every triple through the builder
// yields the exact summary of the batch construction, regardless of
// insertion order.
func TestBuilderMatchesBatch(t *testing.T) {
	for name, g := range sampleGraphs() {
		batch := batchSummarize(g, Weak)
		b := NewWeakBuilder()
		decoded := g.Decode()
		// Insert in reverse to exercise order independence.
		for i := len(decoded) - 1; i >= 0; i-- {
			b.Add(decoded[i])
		}
		inc := b.Summary()
		if !reflect.DeepEqual(batch.Graph.CanonicalStrings(), inc.Graph.CanonicalStrings()) {
			t.Errorf("%s: incremental summary differs from batch", name)
		}
		if batch.Stats.DataNodes != inc.Stats.DataNodes ||
			batch.Stats.AllEdges != inc.Stats.AllEdges {
			t.Errorf("%s: stats differ: batch %+v inc %+v", name, batch.Stats, inc.Stats)
		}
	}
}

func TestBuilderMatchesBatchRandom(t *testing.T) {
	f := func(seed uint64) bool {
		g := datagen.RandomGraph(datagen.FromQuickSeed(seed))
		batch := batchSummarize(g, Weak)
		b := NewWeakBuilderWithGraph(g.CloneStructure())
		inc := b.Summary()
		return reflect.DeepEqual(batch.Graph.CanonicalStrings(), inc.Graph.CanonicalStrings())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestBuilderSnapshotsAreMonotone: adding triples can only merge classes,
// never split them — class counts are non-increasing once all nodes are
// present, and every snapshot remains a valid fixpoint.
func TestBuilderSnapshotsEvolve(t *testing.T) {
	b := NewWeakBuilder()
	triples := samples.Fig2Triples()
	var lastSummary *Summary
	for _, tr := range triples {
		b.Add(tr)
		lastSummary = b.Summary()
		// Each snapshot is a valid weak summary of the prefix: re-summarize
		// its input and compare.
		again := batchSummarize(b.Graph(), Weak)
		if !reflect.DeepEqual(lastSummary.Graph.CanonicalStrings(), again.Graph.CanonicalStrings()) {
			t.Fatalf("snapshot after %v is not the batch summary of the prefix", tr)
		}
	}
	if lastSummary.Stats.DataNodes != 6 {
		t.Errorf("final snapshot has %d data nodes, want 6 (Figure 4)", lastSummary.Stats.DataNodes)
	}
}

// TestBuilderClassesCheapCounter: the Classes counter matches the summary
// node count over nodes with data properties.
func TestBuilderClassesCheapCounter(t *testing.T) {
	b := NewWeakBuilderWithGraph(samples.Fig2())
	s := b.Summary()
	// Classes counts weak classes of property-bearing nodes; Nτ (typed
	// only) is excluded.
	want := s.Stats.DataNodes - 1 // minus Nτ
	if got := b.Classes(); got != want {
		t.Errorf("Classes() = %d, want %d", got, want)
	}
}

// TestBuilderAddEncoded: encoded and string-level insertion agree.
func TestBuilderAddEncoded(t *testing.T) {
	b1 := NewWeakBuilder()
	for _, tr := range samples.Fig2Triples() {
		b1.Add(tr)
	}
	b2 := NewWeakBuilder()
	d := b2.Graph().Dict()
	for _, tr := range samples.Fig2Triples() {
		b2.AddEncoded(d.Encode(tr.S), d.Encode(tr.P), d.Encode(tr.O))
	}
	if !reflect.DeepEqual(b1.Summary().Graph.CanonicalStrings(), b2.Summary().Graph.CanonicalStrings()) {
		t.Error("Add and AddEncoded disagree")
	}
}

// TestBuilderContinuesAfterSnapshot: a snapshot must not freeze the
// builder.
func TestBuilderContinuesAfterSnapshot(t *testing.T) {
	b := NewWeakBuilder()
	triples := samples.Fig2Triples()
	half := len(triples) / 2
	for _, tr := range triples[:half] {
		b.Add(tr)
	}
	_ = b.Summary() // snapshot mid-stream
	for _, tr := range triples[half:] {
		b.Add(tr)
	}
	final := b.Summary()
	batch := batchSummarize(store.FromTriples(triples), Weak)
	if !reflect.DeepEqual(final.Graph.CanonicalStrings(), batch.Graph.CanonicalStrings()) {
		t.Error("builder diverged after a mid-stream snapshot")
	}
}

// --- unified quotient engine (engine.go) ----------------------------------

// renderNodeOf maps the paper's rd function to lexical forms, so quotient
// maps are comparable across dictionaries.
func renderNodeOf(s *Summary) map[string]string {
	d := s.Input.Dict()
	out := make(map[string]string, len(s.NodeOf))
	for n, rep := range s.NodeOf {
		out[d.Term(n).String()] = d.Term(rep).String()
	}
	return out
}

func sameSummary(a, b *Summary) bool {
	return reflect.DeepEqual(a.Graph.CanonicalStrings(), b.Graph.CanonicalStrings()) &&
		reflect.DeepEqual(renderNodeOf(a), renderNodeOf(b))
}

// TestAllKindsBuilderMatchesBatch: for every summary kind, streaming every
// triple through the incremental builder (in reverse, to exercise order
// independence) yields the exact summary — graph and quotient map — of the
// batch construction.
func TestAllKindsBuilderMatchesBatch(t *testing.T) {
	for name, g := range sampleGraphs() {
		for _, kind := range Kinds {
			batch := batchSummarize(g, kind)
			b, err := NewBuilder(kind)
			if err != nil {
				t.Fatal(err)
			}
			decoded := g.Decode()
			for i := len(decoded) - 1; i >= 0; i-- {
				b.Add(decoded[i])
			}
			inc := b.Summary()
			if !sameSummary(batch, inc) {
				t.Errorf("%s/%v: incremental summary differs from batch", name, kind)
			}
			if batch.Stats != inc.Stats {
				t.Errorf("%s/%v: stats differ: batch %+v inc %+v", name, kind, batch.Stats, inc.Stats)
			}
		}
	}
}

// TestAllKindsRandomInterleavingOracle is the engine's property test: a
// random graph's triples are shuffled into a random interleaving of data
// and type triples (so nodes get typed late, exercising migrations and
// rebuilds), fed through one shared BuilderSet maintaining all five kinds,
// and snapshotted at random points — every snapshot of every kind must be
// bit-identical to the batch summary of the prefix.
func TestAllKindsRandomInterleavingOracle(t *testing.T) {
	f := func(seed uint64) bool {
		triples := datagen.RandomGraph(datagen.FromQuickSeed(seed)).Decode()
		rng := rand.New(rand.NewPCG(seed, 0xfeed))
		rng.Shuffle(len(triples), func(i, j int) { triples[i], triples[j] = triples[j], triples[i] })

		set, err := NewBuilderSet(store.NewGraph(), Kinds)
		if err != nil {
			t.Fatal(err)
		}
		snapAt := map[int]bool{len(triples) - 1: true}
		for k := 0; k < 3 && len(triples) > 0; k++ {
			snapAt[rng.IntN(len(triples))] = true
		}
		for i, tr := range triples {
			set.Add(tr)
			if !snapAt[i] {
				continue
			}
			prefix := store.FromTriples(triples[:i+1])
			for _, kind := range Kinds {
				inc, err := set.Summary(kind)
				if err != nil {
					t.Fatal(err)
				}
				batch := batchSummarize(prefix, kind)
				if !sameSummary(batch, inc) {
					t.Logf("seed %d: %v snapshot after %d triples differs from batch", seed, kind, i+1)
					return false
				}
				if batch.Stats != inc.Stats {
					t.Logf("seed %d: %v stats differ at %d: batch %+v inc %+v", seed, kind, i+1, batch.Stats, inc.Stats)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestLateTypingTriggersRebuild: typing a node that already bridged two
// property representatives cannot be undone in a union-find, so the
// typed-weak and typed-strong drivers must rebuild — and still match the
// batch summary exactly.
func TestLateTypingTriggersRebuild(t *testing.T) {
	iri := func(s string) rdf.Term { return rdf.NewIRI("http://x/" + s) }
	triples := []rdf.Triple{
		rdf.NewTriple(iri("n"), iri("p"), iri("o1")),
		rdf.NewTriple(iri("n"), iri("q"), iri("o2")), // n bridges p and q
		rdf.NewTriple(iri("m"), iri("p"), iri("o3")),
		rdf.NewTriple(iri("n"), rdf.NewIRI(rdf.RDFType), iri("C")), // late first type
		rdf.NewTriple(iri("m"), iri("q"), iri("o4")),               // post-rebuild increment
	}
	for _, kind := range []Kind{TypedWeak, TypedStrong} {
		b, err := NewBuilder(kind)
		if err != nil {
			t.Fatal(err)
		}
		for _, tr := range triples {
			b.Add(tr)
		}
		inc := b.Summary()
		if b.Rebuilds() == 0 {
			t.Errorf("%v: late typing of a bridging node should force a rebuild", kind)
		}
		batch := batchSummarize(store.FromTriples(triples), kind)
		if !sameSummary(batch, inc) {
			t.Errorf("%v: post-rebuild summary differs from batch", kind)
		}
	}
}

// TestTypesFirstStreamNeverRebuilds: when every node's types arrive before
// its data edges — the BuilderSet seeding order, and the live store's
// recommended ingest shape — no kind ever pays a rebuild.
func TestTypesFirstStreamNeverRebuilds(t *testing.T) {
	g := datagen.RandomGraph(datagen.Default(7))
	set, err := NewBuilderSet(g, Kinds)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range Kinds {
		if _, err := set.Summary(kind); err != nil {
			t.Fatal(err)
		}
		if n := set.Rebuilds(kind); n != 0 {
			t.Errorf("%v: types-first stream paid %d rebuilds, want 0", kind, n)
		}
	}
}

// TestBuilderSetSharesOnePass: a set maintaining every kind answers each
// kind identically to five independent builders.
func TestBuilderSetSharesOnePass(t *testing.T) {
	g := samples.Fig2()
	set, err := NewBuilderSet(g.CloneStructure(), Kinds)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range Kinds {
		shared, err := set.Summary(kind)
		if err != nil {
			t.Fatal(err)
		}
		solo := MustSummarize(g, kind)
		if !reflect.DeepEqual(shared.Graph.CanonicalStrings(), solo.Graph.CanonicalStrings()) {
			t.Errorf("%v: shared-set summary differs from standalone", kind)
		}
	}
	if got, want := len(set.Kinds()), NumKinds; got != want {
		t.Errorf("set maintains %d kinds, want %d", got, want)
	}
}

// TestKindsDense: the Kind constants are dense in [0, NumKinds), the
// invariant behind every [NumKinds]-sized array in the system.
func TestKindsDense(t *testing.T) {
	if len(Kinds) != NumKinds {
		t.Fatalf("len(Kinds) = %d, want NumKinds = %d", len(Kinds), NumKinds)
	}
	seen := map[Kind]bool{}
	for _, k := range Kinds {
		if int(k) < 0 || int(k) >= NumKinds || seen[k] {
			t.Errorf("kind %v out of range or duplicated", k)
		}
		seen[k] = true
	}
}

// TestParseKindSpellings: every advertised spelling parses, and the error
// text enumerates the accepted short forms.
func TestParseKindSpellings(t *testing.T) {
	for i, forms := range KindSpellings() {
		for _, form := range forms {
			k, err := ParseKind(form)
			if err != nil || k != Kinds[i] {
				t.Errorf("ParseKind(%q) = %v, %v; want %v", form, k, err, Kinds[i])
			}
		}
	}
	_, err := ParseKind("bogus")
	if err == nil {
		t.Fatal("ParseKind accepted a bogus name")
	}
	for _, short := range []string{"tw", "ts", "tb", "w|", "s|"} {
		if !strings.Contains(err.Error(), short) {
			t.Errorf("ParseKind error %q does not list short form %q", err, short)
		}
	}
}
