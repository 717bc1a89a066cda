// Oracle tests: the optimized implementations must agree with the naive
// definition-faithful ones on the sample graphs and a random corpus.
package refimpl

import (
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"rdfsum/internal/cliques"
	"rdfsum/internal/core"
	"rdfsum/internal/datagen"
	"rdfsum/internal/dict"
	"rdfsum/internal/query"
	"rdfsum/internal/samples"
	"rdfsum/internal/saturate"
	"rdfsum/internal/store"
)

// smallConfig keeps oracle inputs tractable for the cubic reference code.
func smallGraph(seed uint64) *store.Graph {
	cfg := datagen.FromQuickSeed(seed)
	if cfg.Nodes > 14 {
		cfg.Nodes = 14
	}
	if cfg.Props > 5 {
		cfg.Props = 5
	}
	return datagen.RandomGraph(cfg)
}

func canonPartition(classes [][]dict.ID) []string {
	var keys []string
	for _, c := range classes {
		ids := append([]dict.ID(nil), c...)
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		var parts []string
		for _, id := range ids {
			parts = append(parts, string(rune('0'+id%10))+"#"+string(rune('0'+(id/10)%10)))
		}
		keys = append(keys, strings.Join(parts, ","))
	}
	sort.Strings(keys)
	return keys
}

func partitionFromMembers(members [][]dict.ID) []string { return canonPartition(members) }

// TestCliqueOracle: union-find cliques == fixpoint cliques.
func TestCliqueOracle(t *testing.T) {
	check := func(g *store.Graph) bool {
		fast := cliques.Compute(g.Data)
		if !reflect.DeepEqual(partitionFromMembers(fast.SrcMembers), canonPartition(SourceCliques(g.Data))) {
			return false
		}
		return reflect.DeepEqual(partitionFromMembers(fast.TgtMembers), canonPartition(TargetCliques(g.Data)))
	}
	for name, g := range map[string]*store.Graph{
		"fig2": samples.Fig2(), "fig5": samples.Fig5(), "fig10": samples.Fig10(),
	} {
		if !check(g) {
			t.Errorf("%s: clique oracle mismatch", name)
		}
	}
	f := func(seed uint64) bool { return check(smallGraph(seed)) }
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// partitionFromSummary recovers the node partition of a summary from its
// NodeOf map.
func partitionFromSummary(s *core.Summary) []string {
	byRep := map[dict.ID][]dict.ID{}
	for n, rep := range s.NodeOf {
		byRep[rep] = append(byRep[rep], n)
	}
	var classes [][]dict.ID
	for _, c := range byRep {
		classes = append(classes, c)
	}
	return canonPartition(classes)
}

// TestWeakPartitionOracle: the weak summary's node partition equals the
// Definition 7 closure.
func TestWeakPartitionOracle(t *testing.T) {
	check := func(g *store.Graph) bool {
		s := core.MustSummarize(g, core.Weak)
		return reflect.DeepEqual(partitionFromSummary(s), canonPartition(WeakClasses(g)))
	}
	for name, g := range map[string]*store.Graph{
		"fig2": samples.Fig2(), "fig5": samples.Fig5(), "fig8": samples.Fig8(),
	} {
		if !check(g) {
			t.Errorf("%s: weak partition oracle mismatch", name)
		}
	}
	f := func(seed uint64) bool { return check(smallGraph(seed)) }
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestStrongPartitionOracle: the strong summary's node partition equals
// the Definition 15 grouping.
func TestStrongPartitionOracle(t *testing.T) {
	check := func(g *store.Graph) bool {
		s := core.MustSummarize(g, core.Strong)
		return reflect.DeepEqual(partitionFromSummary(s), canonPartition(StrongClasses(g)))
	}
	if !check(samples.Fig2()) {
		t.Error("fig2: strong partition oracle mismatch")
	}
	f := func(seed uint64) bool { return check(smallGraph(seed)) }
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestSaturationOracle: schema-first saturation == blind-fixpoint
// saturation.
func TestSaturationOracle(t *testing.T) {
	check := func(g *store.Graph) bool {
		fast := saturate.Graph(g)
		slow := Saturate(g)
		return reflect.DeepEqual(fast.CanonicalStrings(), slow.CanonicalStrings())
	}
	for name, g := range map[string]*store.Graph{
		"book": samples.BookGraph(), "fig5": samples.Fig5(), "fig8": samples.Fig8(),
		"fig10": samples.Fig10(),
	} {
		if !check(g) {
			t.Errorf("%s: saturation oracle mismatch", name)
		}
	}
	f := func(seed uint64) bool { return check(smallGraph(seed)) }
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestEvalOracle: indexed evaluation == naive scan evaluation, over
// extracted and hand-written queries.
func TestEvalOracle(t *testing.T) {
	rowsOf := func(g *store.Graph, q *query.Query) []string {
		res, err := query.Eval(g, store.NewIndex(g), q, nil)
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, row := range res.Rows {
			var parts []string
			for _, term := range row {
				parts = append(parts, term.String())
			}
			out = append(out, strings.Join(parts, "\t"))
		}
		sort.Strings(out)
		return out
	}
	sameRows := func(a, b []string) bool {
		if len(a) == 0 && len(b) == 0 {
			return true
		}
		return reflect.DeepEqual(a, b)
	}

	g := samples.Fig2()
	hand := []*query.Query{
		query.MustParse(`PREFIX ex: <http://example.org/>
			SELECT ?x ?y WHERE { ?x ex:title ?y }`),
		query.MustParse(`PREFIX ex: <http://example.org/>
			SELECT ?x WHERE { ?x ex:author ?a . ?a ex:reviewed ?r . ?r ex:title ?t }`),
		query.MustParse(`PREFIX ex: <http://example.org/>
			SELECT ?x ?p WHERE { ?x ?p ?y . ?x a ex:Journal }`),
		query.MustParse(`PREFIX ex: <http://example.org/>
			ASK { ?x ex:comment ?c . ?x ex:editor ?e }`),
	}
	for i, q := range hand {
		if !sameRows(rowsOf(g, q), Eval(g, q)) {
			t.Errorf("hand query %d: oracle mismatch", i)
		}
	}

	f := func(seed uint64) bool {
		g := smallGraph(seed)
		rng := query.NewRNG(seed)
		for i := 0; i < 4; i++ {
			q, ok := query.ExtractRBGP(g, rng, 3)
			if !ok {
				return true
			}
			if !sameRows(rowsOf(g, q), Eval(g, q)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
