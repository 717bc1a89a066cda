package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"rdfsum"
	"rdfsum/internal/bsbm"
	"rdfsum/internal/lubm"
	"rdfsum/internal/query"
	"rdfsum/internal/rdf"
	"rdfsum/internal/refimpl"
)

func bsbmDump(t *testing.T, seed uint64, products int) dataset {
	t.Helper()
	cfg := bsbmConfig(seed, products)
	ds, err := writeDump(filepath.Join(t.TempDir(), "d.nt.gz"), func(emit func(rdf.Triple)) { bsbm.Generate(cfg, emit) }, nil)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func lubmDump(t *testing.T, seed uint64) dataset {
	t.Helper()
	cfg := lubmConfig(seed, 1)
	ds, err := writeDump(filepath.Join(t.TempDir(), "d.nt.gz"), func(emit func(rdf.Triple)) { lubm.Generate(cfg, emit) }, nil)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// streamDigest renders the first reads and writes of a seed's streams.
func streamDigest(seed uint64) string {
	var b strings.Builder
	for conn := 0; conn < 2; conn++ {
		rs := newReadStream(seed, conn, 500, 20)
		for i := 0; i < 300; i++ {
			req := rs.next()
			fmt.Fprintf(&b, "%d %s\n", req.class, req.text)
		}
	}
	ws := newWriteStream(seed, 500, 50, time.Second)
	for i := 0; i < 12; i++ {
		bt := ws.next()
		fmt.Fprintf(&b, "%v %v %s", bt.due, bt.del, bt.body)
	}
	return b.String()
}

func TestSeedDeterminesInputs(t *testing.T) {
	if a, b := bsbmDump(t, 7, 50), bsbmDump(t, 7, 50); a.digest != b.digest || a.triples != b.triples {
		t.Errorf("BSBM seed 7 twice: digests %s and %s", a.digest, b.digest)
	}
	if a, b := bsbmDump(t, 7, 50), bsbmDump(t, 8, 50); a.digest == b.digest {
		t.Errorf("BSBM seeds 7 and 8 give the same dataset")
	}
	if a, b := lubmDump(t, 7), lubmDump(t, 7); a.digest != b.digest {
		t.Errorf("LUBM seed 7 twice: digests %s and %s", a.digest, b.digest)
	}
	if a, b := lubmDump(t, 7), lubmDump(t, 8); a.digest == b.digest {
		t.Errorf("LUBM seeds 7 and 8 give the same dataset")
	}
	if streamDigest(7) != streamDigest(7) {
		t.Errorf("seed 7 gives two different request streams")
	}
	if streamDigest(7) == streamDigest(8) {
		t.Errorf("seeds 7 and 8 give the same request stream")
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	sample := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending: the helper must sort
		}
		return xs
	}
	if v, ok := percentile(sample(1000), 0.99); !ok || v != 990 {
		t.Errorf("p99 of 1..1000 = %v, %v; want 990, true (10 samples beyond)", v, ok)
	}
	if _, ok := percentile(sample(999), 0.99); ok {
		t.Errorf("p99 of 999 samples reported with only 9 beyond it")
	}
	if v, ok := percentile(sample(21), 0.5); !ok || v != 11 {
		t.Errorf("p50 of 1..21 = %v, %v; want 11, true", v, ok)
	}
}

// toyReference is a small BSBM graph with the benchmark's reference index.
func toyReference(t *testing.T, products int) (*rdfsum.Graph, *refIndex) {
	t.Helper()
	triples := bsbm.GenerateTriples(bsbmConfig(3, products))
	ref := newRefIndex(nil)
	for _, tr := range triples {
		ref.add(tr)
	}
	return rdfsum.NewGraph(triples), ref
}

func allClassTexts(products int) []string {
	texts := append(append([]string{offersQuery}, analyticMix...), emptyMix...)
	for p := 0; p < products; p += 7 {
		texts = append(texts, lookupQuery(p), reviewsQuery(p))
	}
	return texts
}

func TestReferenceMatchesRefimpl(t *testing.T) {
	g, ref := toyReference(t, 30)
	for _, text := range allClassTexts(30) {
		q, err := query.Parse(text)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ref.eval(q)
		if err != nil {
			t.Fatal(err)
		}
		if want := refimpl.Eval(g, q); !slices.Equal(got, want) {
			t.Errorf("%s:\nreference %d rows, refimpl %d rows", text, len(got), len(want))
		}
	}
}

// engineOut answers a query the way the server does (row-capped), as a
// stand-in for a correct server response.
func engineOut(t *testing.T, g *rdfsum.Graph, text string, limit int) queryOut {
	t.Helper()
	q, err := rdfsum.ParseQuery(text)
	if err != nil {
		t.Fatal(err)
	}
	res, err := rdfsum.EvalQueryWithOptions(g, rdfsum.NewIndex(g), q, &rdfsum.QueryOptions{Limit: limit})
	if err != nil {
		t.Fatal(err)
	}
	return queryOut{rows: termRows(res.Rows), truncated: res.Truncated}
}

func TestReadGateFailsOnWrongReference(t *testing.T) {
	g, ref := toyReference(t, 30)
	const limit = 20
	good := newReadChecker(ref, limit)
	checks := []struct {
		c    class
		text string
	}{{classLookup, lookupQuery(4)}, {classReviews, reviewsQuery(4)}, {classAnalytic, analyticMix[1]}, {classEmpty, emptyMix[0]}}
	for _, c := range checks {
		if err := good.check(c.c, c.text, engineOut(t, g, c.text, limit)); err != nil {
			t.Errorf("%s: correct answer rejected: %v", c.c, err)
		}
	}

	// A reference missing one offer's price and Product4's reviews, and
	// holding one offer with a review date, disagrees on every class.
	_, wrong := toyReference(t, 30)
	offer := rdf.NewIRI(bsbm.InstNS + "Offer12")
	for _, tr := range bsbm.GenerateTriples(bsbmConfig(3, 30)) {
		if tr.S == offer && tr.P == bsbm.Price {
			wrong.remove(tr)
		}
		if tr.P == bsbm.ReviewFor && tr.O == rdf.NewIRI(productIRI(4)) {
			wrong.remove(tr)
		}
	}
	wrong.add(rdf.Triple{S: rdf.NewIRI(bsbm.InstNS + "Offer13"), P: bsbm.ReviewDate, O: rdf.NewLiteral("2008-01-01")})
	bad := newReadChecker(wrong, limit)
	texts := map[class]string{
		classLookup:   lookupQuery(4),
		classReviews:  reviewsQuery(4),
		classAnalytic: analyticMix[1],
		classEmpty:    emptyMix[0],
	}
	// lookupQuery(4) must involve Offer12 for the lookup check to bite.
	if !strings.Contains(strings.Join(canonRows(engineOut(t, g, lookupQuery(4), 0).rows), "\n"), "Offer12>") {
		t.Fatalf("Offer12 is not an offer of Product4 at this seed; pick another")
	}
	for c, text := range texts {
		if err := bad.check(c, text, engineOut(t, g, text, limit)); err == nil {
			t.Errorf("%s: wrong reference accepted the answer", c)
		}
	}
	// The analytic check also rejects a row outside the reference and a
	// short answer.
	out := engineOut(t, g, analyticMix[1], limit)
	out.rows[0] = []string{"<urn:x>", `"1"`}
	if err := good.check(classAnalytic, analyticMix[1], out); err == nil {
		t.Errorf("analytic: foreign row accepted")
	}
	out = engineOut(t, g, analyticMix[1], limit)
	out.rows = out.rows[1:]
	if err := good.check(classAnalytic, analyticMix[1], out); err == nil {
		t.Errorf("analytic: short answer accepted")
	}
}

func TestMixedGatesFailOnWrongReference(t *testing.T) {
	if err := emptyChecker(classEmpty, emptyMix[0], queryOut{rows: [][]string{{"<urn:x>"}}}); err == nil {
		t.Errorf("empty class: a row was accepted")
	}

	// Acks: a server acknowledging fewer triples than sent fails.
	spec := loadSpec{seed: 1, products: 50, writes: newWriteStream(1, 50, 50, 10*time.Millisecond), duration: 100 * time.Millisecond}
	if res := runLoad(shortAcks{}, spec, 0, nil); res.failed == 0 || res.failed != len(res.batches) {
		t.Errorf("short acks: %d failures for %d batches", res.failed, len(res.batches))
	}

	// End state: a mirror that missed one batch disagrees with a store
	// that applied them all.
	dump := bsbmDump(t, 5, 40)
	ws := newWriteStream(5, 40, 50, time.Second)
	var batches []batch
	for i := 0; i < 6; i++ {
		batches = append(batches, ws.next())
	}
	full, err := mirrorOf(dump.path, batches)
	if err != nil {
		t.Fatal(err)
	}
	probes := endProbes(5, 40)
	if failures, err := compareEndState(liveEnd{full}, full, probes); err != nil || len(failures) != 0 {
		t.Fatalf("identical stores disagree: %v %v", failures, err)
	}
	short, err := mirrorOf(dump.path, batches[:5]) // batch 5 deletes 5 offers
	if err != nil {
		t.Fatal(err)
	}
	failures, err := compareEndState(liveEnd{full}, short, probes)
	if err != nil {
		t.Fatal(err)
	}
	if len(failures) < 2 {
		t.Errorf("a mirror missing a delete batch gave only %d failures: %v", len(failures), failures)
	}
}

// shortAcks is a target acknowledging one triple fewer than each batch
// holds.
type shortAcks struct{}

func (shortAcks) query(context.Context, int, string, int) (queryOut, error) { return queryOut{}, nil }
func (shortAcks) summary(context.Context, int, string) error                { return nil }
func (shortAcks) write(_ context.Context, b batch) (int, error)             { return len(b.triples) - 1, nil }
func (shortAcks) compact(context.Context) error                             { return nil }

// liveEnd reads the end state of an in-process store.
type liveEnd struct{ lv *rdfsum.Live }

func (l liveEnd) triples() (int, error)                { return int(l.lv.Stats().Triples), nil }
func (l liveEnd) rows(text string) ([][]string, error) { return liveRows(l.lv, text) }

func TestSummarizeGateFailsOnWrongReference(t *testing.T) {
	g := rdfsum.GenerateLUBM(1)
	for _, k := range rdfsum.Kinds {
		s, err := rdfsum.Summarize(g, k)
		if err != nil {
			t.Fatal(err)
		}
		want, err := factsOf(s)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), k.String()+".nt")
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := rdfsum.WriteNTriples(f, s.Graph.Decode()); err != nil {
			t.Fatal(err)
		}
		f.Close()
		stdout := []byte(fmt.Sprintf("%s summary:  data nodes %d  all nodes %d  data edges %d  all edges %d  compression 1e-3\n",
			k, s.Stats.DataNodes, s.Stats.AllNodes, s.Stats.DataEdges, s.Stats.AllEdges))
		got, err := outputFacts(stdout, k, path)
		if err != nil {
			t.Fatal(err)
		}
		if err := checkFacts(k, got, want); err != nil {
			t.Errorf("%s: correct output rejected: %v", k, err)
		}
		for _, wrong := range []summaryFacts{
			{want.nodes + 1, want.edges, want.digest},
			{want.nodes, want.edges - 1, want.digest},
			{want.nodes, want.edges, strings.Repeat("0", 64)},
		} {
			if err := checkFacts(k, got, wrong); err == nil {
				t.Errorf("%s: wrong reference %+v accepted", k, wrong)
			}
		}
	}
}

// manifest is the part of BENCHMARK.json the smoke test checks.
type manifest struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// TestSmoke runs every workload at toy scale through freshly built
// rdfsumd and rdfsum binaries, traced and untraced, and checks that each
// run is correct and reports exactly the manifest's metrics.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the binaries and runs every workload")
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", bin, "rdfsum/cmd/rdfsumd", "rdfsum/cmd/rdfsum")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	log, err := os.Create(filepath.Join(t.TempDir(), "report.txt"))
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	for _, w := range m.Workloads {
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", w.Name, traced), func(t *testing.T) {
				fn, ok := workloads[w.Name]
				if !ok {
					t.Fatalf("manifest names unknown workload %q", w.Name)
				}
				// 3 s gives bsbm-mixed's report lines a p99 and its
				// measured phase a delete batch.
				res, err := execute(w.Name, fn, 3, 3, traced, bin, t.TempDir(), toyParams, log)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				want := m.EndToEnd
				if traced {
					want = m.PerLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics reported, manifest lists %d", len(res.Metrics), len(want))
				}
				for _, mt := range want {
					got, ok := res.Metrics[mt.Name]
					if !ok || got.Unit != mt.Unit {
						t.Errorf("metric %s: got %+v (present %v), want unit %s", mt.Name, got, ok, mt.Unit)
					}
					if !traced && got.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want > 0", mt.Name, got.Value)
					}
				}
			})
		}
	}
}

// remove drops one copy of a triple, to build deliberately wrong
// references.
func (r *refIndex) remove(t rdf.Triple) {
	s, p, o := t.S.String(), t.P.String(), t.O.String()
	if r.keep != nil && !r.keep[p] {
		return
	}
	drop := func(xs []string, x string) []string {
		for i, v := range xs {
			if v == x {
				return append(xs[:i:i], xs[i+1:]...)
			}
		}
		return xs
	}
	r.byPS[[2]string{p, s}] = drop(r.byPS[[2]string{p, s}], o)
	r.byPO[[2]string{p, o}] = drop(r.byPO[[2]string{p, o}], s)
	pairs := r.byP[p]
	for i, so := range pairs {
		if so == [2]string{s, o} {
			r.byP[p] = append(pairs[:i:i], pairs[i+1:]...)
			break
		}
	}
}
