// Planner non-regression: on the committed BSBM/LUBM query mixes
// (mirrored from the root bench_test.go workloads), the join order chosen
// by whole-query estimation never enumerates more triples than the old
// per-pattern-count heuristic would have. White-box: the test replays one
// compiled plan under both static orders.
//
// The same fixtures gate estimation accuracy (`make est-check`): the
// median q-error of the whole-query estimates over the mixes must stay
// small.
package query

import (
	"sort"
	"testing"

	"rdfsum/internal/bsbm"
	"rdfsum/internal/core"
	"rdfsum/internal/lubm"
	"rdfsum/internal/store"
)

var regressionMixes = []struct {
	name    string
	graph   func() *store.Graph
	kind    core.Kind
	queries []string
}{
	{
		name:  "bsbm",
		graph: func() *store.Graph { return bsbm.GenerateGraph(bsbm.DefaultConfig(300)) },
		kind:  core.Weak,
		queries: []string{
			`PREFIX bsbm: <http://bsbm.example.org/vocabulary/>
			 SELECT ?p ?v WHERE {
				?o bsbm:product ?p .
				?o bsbm:vendor ?v .
				?r bsbm:reviewFor ?p .
				?r bsbm:rating1 ?score
			 }`,
			`PREFIX bsbm: <http://bsbm.example.org/vocabulary/>
			 SELECT ?p ?c WHERE {
				?p bsbm:producer ?pr .
				?o bsbm:product ?p .
				?o bsbm:price ?c
			 }`,
			`PREFIX bsbm: <http://bsbm.example.org/vocabulary/>
			 SELECT ?r ?d WHERE { ?r bsbm:reviewFor ?p . ?r bsbm:reviewDate ?d }`,
			`PREFIX bsbm: <http://bsbm.example.org/vocabulary/>
			 PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
			 SELECT ?p WHERE { ?p rdf:type bsbm:Product . ?p bsbm:producer ?x }`,
		},
	},
	{
		name:  "lubm",
		graph: func() *store.Graph { return lubm.GenerateGraph(lubm.DefaultConfig(2)) },
		kind:  core.TypedWeak,
		queries: []string{
			`PREFIX ub: <http://lubm.example.org/univ-bench.owl#>
			 SELECT ?x ?u WHERE { ?x ub:headOf ?d . ?d ub:subOrganizationOf ?u }`,
			`PREFIX ub: <http://lubm.example.org/univ-bench.owl#>
			 SELECT ?s WHERE { ?s ub:memberOf ?d . ?s ub:advisor ?p . ?p ub:worksFor ?d }`,
			`PREFIX ub: <http://lubm.example.org/univ-bench.owl#>
			 SELECT ?s ?c WHERE {
				?x ub:worksFor ?d .
				?x ub:teacherOf ?c .
				?s ub:advisor ?x .
				?s ub:takesCourse ?c
			 }`,
		},
	},
}

// runWithOrder evaluates a copy of pl under the given static order and
// returns the total number of triples enumerated plus the row count.
func runWithOrder(t *testing.T, pl *Plan, ix *store.Index, order []int) (work int64, rows int) {
	t.Helper()
	cp := *pl
	cp.order = order
	res, err := cp.Eval(ix, &EvalOptions{Explain: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range res.Explain.Steps {
		work += st.Actual
	}
	return work, len(res.Rows)
}

func TestPlannerOrderNonRegression(t *testing.T) {
	for _, mix := range regressionMixes {
		t.Run(mix.name, func(t *testing.T) {
			g := mix.graph()
			w := core.MustSummarize(g, mix.kind).ComputeWeights()
			ix := store.NewIndex(g)
			for qi, text := range mix.queries {
				q := MustParse(text)
				pl, err := Compile(g, q, w)
				if err != nil {
					t.Fatal(err)
				}
				// The previous heuristic: per-pattern counts, then the
				// connectivity-chained static order.
				legacyOrder := staticOrder(pl.pats, estimate(g, pl.pats, w))
				newWork, newRows := runWithOrder(t, pl, ix, pl.order)
				oldWork, oldRows := runWithOrder(t, pl, ix, legacyOrder)
				if newRows != oldRows {
					t.Fatalf("query %d: rows differ across orders: %d vs %d", qi, newRows, oldRows)
				}
				if newWork > oldWork {
					t.Errorf("query %d: estimated order enumerates %d triples, legacy order %d",
						qi, newWork, oldWork)
				}
				t.Logf("query %d: new=%d legacy=%d triples enumerated (%d rows)",
					qi, newWork, oldWork, newRows)
			}
		})
	}
}

// TestEstimationAccuracyMixes is the est-check gate: the median q-error of
// whole-query estimates over the committed mixes (measured against the
// true number of embeddings — all variables projected) must stay under the
// regression threshold.
func TestEstimationAccuracyMixes(t *testing.T) {
	const (
		medianMax = 5.0
		worstMax  = 1e4
	)
	var qerrs []float64
	for _, mix := range regressionMixes {
		g := mix.graph()
		w := core.MustSummarize(g, mix.kind).ComputeWeights()
		ix := store.NewIndex(g)
		for qi, text := range mix.queries {
			q := MustParse(text)
			// Project every body variable so the row count equals the
			// number of embeddings the estimator predicts.
			full := &Query{Patterns: q.Patterns}
			res, err := Eval(g, ix, full, &EvalOptions{Stats: w, Explain: true})
			if err != nil {
				t.Fatal(err)
			}
			est, act := float64(res.Explain.QueryEst), float64(len(res.Rows))
			if est < 1 {
				est = 1
			}
			if act < 1 {
				act = 1
			}
			qe := est / act
			if qe < 1 {
				qe = 1 / qe
			}
			t.Logf("%s query %d: est=%d actual=%d q-error=%.2f", mix.name, qi, res.Explain.QueryEst, len(res.Rows), qe)
			if qe > worstMax {
				t.Errorf("%s query %d: q-error %.1f exceeds %.0f", mix.name, qi, qe, worstMax)
			}
			qerrs = append(qerrs, qe)
		}
	}
	sort.Float64s(qerrs)
	if median := qerrs[len(qerrs)/2]; median > medianMax {
		t.Errorf("median q-error %.2f over the mixes exceeds %.1f", median, medianMax)
	}
}
