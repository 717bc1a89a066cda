// Planner oracle tests: the compiled slot engine must return exactly the
// row set of the naive all-orders reference evaluator, with and without
// weight-based join ordering, over hand-written and randomized queries.
package query_test

import (
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"rdfsum/internal/core"
	"rdfsum/internal/datagen"
	"rdfsum/internal/query"
	"rdfsum/internal/refimpl"
	"rdfsum/internal/samples"
	"rdfsum/internal/store"
)

// smallGraph keeps oracle inputs tractable for the cubic reference code.
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

// engineRows evaluates q through the compiled engine and canonicalizes the
// rows the same way refimpl.Eval does.
func engineRows(t testing.TB, g *store.Graph, q *query.Query, opts *query.EvalOptions) []string {
	t.Helper()
	res, err := query.Eval(g, store.NewIndex(g), q, opts)
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

func sameRows(a, b []string) bool {
	if len(a) == 0 && len(b) == 0 {
		return true
	}
	return reflect.DeepEqual(a, b)
}

// weightsOf derives planner statistics from the weak summary of g.
func weightsOf(t testing.TB, g *store.Graph) query.PlanStats {
	t.Helper()
	return core.MustSummarize(g, core.Weak).ComputeWeights()
}

// TestPlanOracleRandom: on random graphs, extracted queries (full and
// projected) evaluate identically through the planned engine — with and
// without summary statistics — and through the naive reference.
func TestPlanOracleRandom(t *testing.T) {
	f := func(seed uint64) bool {
		g := smallGraph(seed)
		stats := weightsOf(t, g)
		rng := query.NewRNG(seed)
		for i := 0; i < 4; i++ {
			q, ok := query.ExtractRBGP(g, rng, 3)
			if !ok {
				return true
			}
			want := refimpl.Eval(g, q)
			if !sameRows(engineRows(t, g, q, nil), want) {
				t.Logf("seed %d: greedy engine mismatch on %s", seed, q)
				return false
			}
			if !sameRows(engineRows(t, g, q, &query.EvalOptions{Stats: stats}), want) {
				t.Logf("seed %d: planned engine mismatch on %s", seed, q)
				return false
			}
			// Projection onto a strict subset exercises row dedup.
			if vars := q.Vars(); len(vars) > 1 {
				proj := &query.Query{Distinguished: vars[:1], Patterns: q.Patterns}
				if !sameRows(engineRows(t, g, proj, &query.EvalOptions{Stats: stats}), refimpl.Eval(g, proj)) {
					t.Logf("seed %d: projected mismatch on %s", seed, proj)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestPlanOracleHandQueries covers shapes ExtractRBGP never generates:
// variable properties, repeated variables, constants in subject/object
// position, and ASK forms.
func TestPlanOracleHandQueries(t *testing.T) {
	g := samples.Fig2()
	stats := weightsOf(t, g)
	hand := []*query.Query{
		query.MustParse(`PREFIX ex: <http://example.org/>
			SELECT ?x ?p WHERE { ?x ?p ?y . ?x a ex:Journal }`),
		query.MustParse(`PREFIX ex: <http://example.org/>
			SELECT ?x WHERE { ?x ex:author ?a . ?a ex:reviewed ?r . ?r ex:title ?t }`),
		query.MustParse(`PREFIX ex: <http://example.org/>
			SELECT ?p ?q WHERE { ?x ?p ?y . ?y ?q ?z }`),
		query.MustParse(`PREFIX ex: <http://example.org/>
			SELECT ?y WHERE { <http://example.org/r1> ?p ?y }`),
	}
	for i, q := range hand {
		want := refimpl.Eval(g, q)
		if !sameRows(engineRows(t, g, q, nil), want) {
			t.Errorf("hand query %d: greedy mismatch", i)
		}
		if !sameRows(engineRows(t, g, q, &query.EvalOptions{Stats: stats}), want) {
			t.Errorf("hand query %d: planned mismatch", i)
		}
	}
}

// TestStaticOrderFollowsWeights: with statistics, the plan starts from the
// rarest pattern. Fig. 2 has two ex:author triples and four ex:title
// triples, so the author pattern must lead the join order.
func TestStaticOrderFollowsWeights(t *testing.T) {
	g := samples.Fig2()
	stats := weightsOf(t, g)
	q := query.MustParse(`PREFIX ex: <http://example.org/>
		SELECT ?x ?t WHERE { ?x ex:title ?t . ?x ex:author ?a }`)
	res, err := query.Eval(g, store.NewIndex(g), q,
		&query.EvalOptions{Stats: stats, Explain: true})
	if err != nil {
		t.Fatal(err)
	}
	ex := res.Explain
	if ex == nil || !ex.UsedStats || len(ex.Steps) != 2 {
		t.Fatalf("explain = %+v, want 2 stats-driven steps", ex)
	}
	if !strings.Contains(ex.Steps[0].Pattern, "author") {
		t.Errorf("first step = %q, want the rare author pattern first", ex.Steps[0].Pattern)
	}
	if ex.Steps[0].Est <= 0 || ex.Steps[0].Est > ex.Steps[1].Est {
		t.Errorf("estimates not ascending: %d then %d", ex.Steps[0].Est, ex.Steps[1].Est)
	}
	for _, st := range ex.Steps {
		if st.Actual <= 0 {
			t.Errorf("step %q: actual = %d, want > 0", st.Pattern, st.Actual)
		}
	}
}

// TestTypePatternVarClassEstimate: a τ pattern with an unbound class must
// not get a falsely-cheap estimate (type triples are not in the
// per-property data counts). The summary-based estimator counts them
// exactly — the total number of τ triples — so the rarer author pattern
// still leads.
func TestTypePatternVarClassEstimate(t *testing.T) {
	g := samples.Fig2()
	stats := weightsOf(t, g)
	q := query.MustParse(`PREFIX ex: <http://example.org/>
		SELECT ?x ?c WHERE { ?x a ?c . ?x ex:author ?a }`)
	res, err := query.Eval(g, store.NewIndex(g), q,
		&query.EvalOptions{Stats: stats, Explain: true})
	if err != nil {
		t.Fatal(err)
	}
	steps := res.Explain.Steps
	if !strings.Contains(steps[0].Pattern, "author") {
		t.Errorf("first step = %q, want the author pattern before the var-class τ pattern", steps[0].Pattern)
	}
	for _, st := range steps {
		if strings.Contains(st.Pattern, "?c") && st.Est != int64(len(g.Types)) {
			t.Errorf("var-class τ pattern est = %d, want the exact τ count %d", st.Est, len(g.Types))
		}
	}
	if !sameRows(engineRows(t, g, q, &query.EvalOptions{Stats: stats}), refimpl.Eval(g, q)) {
		t.Error("var-class τ query: planned mismatch vs reference")
	}
}

// TestExplainWithoutStats: the report is still produced, with unknown
// estimates marked -1.
func TestExplainWithoutStats(t *testing.T) {
	g := samples.Fig2()
	q := query.MustParse(`PREFIX ex: <http://example.org/>
		SELECT ?x WHERE { ?x ex:author ?a }`)
	res, err := query.Eval(g, store.NewIndex(g), q, &query.EvalOptions{Explain: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Explain == nil || res.Explain.UsedStats {
		t.Fatalf("explain = %+v, want stats-free report", res.Explain)
	}
	if res.Explain.Steps[0].Est != -1 {
		t.Errorf("est = %d, want -1 (unknown)", res.Explain.Steps[0].Est)
	}
}

// TestExplainPerPatternTiming: an explained run attributes wall-clock
// self time to each pattern, and the rendered report shows it.
func TestExplainPerPatternTiming(t *testing.T) {
	g := samples.Fig2()
	q := query.MustParse(`PREFIX ex: <http://example.org/>
		SELECT ?x ?t WHERE { ?x ex:title ?t . ?x ex:author ?a }`)
	res, err := query.Eval(g, store.NewIndex(g), q, &query.EvalOptions{Explain: true})
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, st := range res.Explain.Steps {
		if st.Nanos < 0 {
			t.Errorf("step %q: nanos = %d, want >= 0", st.Pattern, st.Nanos)
		}
		total += st.Nanos
	}
	if total <= 0 {
		t.Errorf("total attributed time = %dns, want > 0", total)
	}
	if out := res.Explain.String(); !strings.Contains(out, "time=") {
		t.Errorf("rendered explain lacks timings:\n%s", out)
	}
	// An unexplained run must not pay for (or report) the attribution.
	res, err = query.Eval(g, store.NewIndex(g), q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Explain != nil {
		t.Errorf("unexplained run produced an explain report")
	}
}

// TestLimitTruncated: Limit cuts the row set and reports truncation; an
// unlimited run of the same query is not truncated.
func TestLimitTruncated(t *testing.T) {
	g := samples.Fig2()
	ix := store.NewIndex(g)
	q := query.MustParse(`SELECT ?s ?p ?o WHERE { ?s ?p ?o }`)
	full, err := query.Eval(g, ix, q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if full.Truncated {
		t.Error("unlimited evaluation reported truncation")
	}
	if len(full.Rows) < 3 {
		t.Fatalf("fig2 has %d rows, need ≥ 3 for the limit test", len(full.Rows))
	}
	lim, err := query.Eval(g, ix, q, &query.EvalOptions{Limit: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(lim.Rows) != 2 || !lim.Truncated {
		t.Errorf("limited eval = %d rows truncated=%v, want 2 rows truncated=true",
			len(lim.Rows), lim.Truncated)
	}
	exact, err := query.Eval(g, ix, q, &query.EvalOptions{Limit: len(full.Rows)})
	if err != nil {
		t.Fatal(err)
	}
	if exact.Truncated {
		t.Error("limit == row count reported truncation")
	}
}

// TestPlanReuse: one compiled plan serves repeated and concurrent
// evaluations.
func TestPlanReuse(t *testing.T) {
	g := samples.Fig2()
	ix := store.NewIndex(g)
	q := query.MustParse(`PREFIX ex: <http://example.org/>
		SELECT ?x ?y WHERE { ?x ex:title ?y }`)
	pl, err := query.Compile(g, q, nil)
	if err != nil {
		t.Fatal(err)
	}
	first, err := pl.Eval(ix, nil)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan int, 4)
	for i := 0; i < 4; i++ {
		go func() {
			res, err := pl.Eval(ix, nil)
			if err != nil {
				done <- -1
				return
			}
			done <- len(res.Rows)
		}()
	}
	for i := 0; i < 4; i++ {
		if n := <-done; n != len(first.Rows) {
			t.Errorf("concurrent eval rows = %d, want %d", n, len(first.Rows))
		}
	}
	if found, err := pl.Ask(ix); err != nil || !found {
		t.Errorf("plan Ask = (%v, %v), want (true, nil)", found, err)
	}
}
