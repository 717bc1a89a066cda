package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"time"

	"rdfsum"
	"rdfsum/client"
	"rdfsum/internal/bsbm"
	"rdfsum/internal/query"
	"rdfsum/internal/rdf"
)

// bsbmData is a generated BSBM dump plus the reference index built from
// the same triple stream.
type bsbmData struct {
	ds  dataset
	ref *refIndex
}

func genBSBM(r *run) (*bsbmData, error) {
	texts := append(append([]string{lookupQuery(0), reviewsQuery(0)}, analyticMix...), emptyMix...)
	preds, err := queryPredicates(texts)
	if err != nil {
		return nil, err
	}
	ref := newRefIndex(preds)
	t0 := time.Now()
	cfg := bsbmConfig(r.seed, r.p.products)
	ds, err := writeDump(filepath.Join(r.work, "bsbm.nt.gz"), func(emit func(rdf.Triple)) { bsbm.Generate(cfg, emit) }, ref.add)
	if err != nil {
		return nil, err
	}
	r.prop("dataset", "BSBM %d products: %d triples, %d B N-Triples, %d B gzipped (generated in %.2fs)",
		r.p.products, ds.triples, ds.rawBytes, ds.gzBytes, time.Since(t0).Seconds())
	r.prop("dataset_digest", "%s", ds.digest)
	return &bsbmData{ds: ds, ref: ref}, nil
}

// readChecker compares each response with the reference: lookup,
// reviews and empty exactly; analytic (row-capped) by size, truncation
// flag and membership of every row.
type readChecker struct {
	ref   *refIndex
	limit int
	mu    sync.Mutex
	rows  map[string][]string
	sets  map[string]map[string]bool
}

func newReadChecker(ref *refIndex, limit int) *readChecker {
	return &readChecker{ref: ref, limit: limit, rows: map[string][]string{}, sets: map[string]map[string]bool{}}
}

func (c *readChecker) expected(text string) ([]string, map[string]bool, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if rows, ok := c.rows[text]; ok {
		return rows, c.sets[text], nil
	}
	q, err := query.Parse(text)
	if err != nil {
		return nil, nil, err
	}
	rows, err := c.ref.eval(q)
	if err != nil {
		return nil, nil, err
	}
	set := make(map[string]bool, len(rows))
	for _, row := range rows {
		set[row] = true
	}
	c.rows[text], c.sets[text] = rows, set
	return rows, set, nil
}

func (c *readChecker) check(cl class, text string, out queryOut) error {
	want, set, err := c.expected(text)
	if err != nil {
		return err
	}
	got := canonRows(out.rows)
	if cl == classAnalytic {
		n := min(len(want), c.limit)
		if len(got) != n || out.truncated != (len(want) > c.limit) {
			return fmt.Errorf("got %d rows (truncated=%v), want %d of %d", len(got), out.truncated, n, len(want))
		}
		for i, row := range got {
			if !set[row] || (i > 0 && got[i-1] == row) {
				return fmt.Errorf("row %q is not a distinct reference answer", row)
			}
		}
		return nil
	}
	if !slices.Equal(got, want) {
		return fmt.Errorf("got %d rows, want %d (%.80q vs %.80q)", len(got), len(want), strings.Join(got, "|"), strings.Join(want, "|"))
	}
	return nil
}

// emptyChecker is the bsbm-mixed read check: writes keep entity kinds
// disjoint, so the empty class must stay empty.
func emptyChecker(cl class, _ string, out queryOut) error {
	if cl == classEmpty && len(out.rows) != 0 {
		return fmt.Errorf("provably empty query returned %d rows", len(out.rows))
	}
	return nil
}

// warmUp sends the first query of each class and the first summary of
// each kind, returning the newest epoch seen.
func warmUp(t target, p params, check checker) (uint64, error) {
	ctx := context.Background()
	var epoch uint64
	for _, w := range []struct {
		c     class
		text  string
		limit int
	}{
		{classLookup, lookupQuery(0), 0},
		{classReviews, reviewsQuery(0), 0},
		{classAnalytic, analyticMix[0], p.analyticLimit},
		{classEmpty, emptyMix[0], 0},
	} {
		out, err := t.query(ctx, 0, w.text, w.limit)
		if err != nil {
			return 0, fmt.Errorf("warm-up %s: %w", w.c, err)
		}
		if check != nil {
			if err := check(w.c, w.text, out); err != nil {
				return 0, fmt.Errorf("warm-up %s: %w", w.c, err)
			}
		}
		epoch = max(epoch, out.epoch)
	}
	for _, k := range rdfsum.Kinds {
		if err := t.summary(ctx, 0, k.String()); err != nil {
			return 0, fmt.Errorf("warm-up summary %s: %w", k, err)
		}
	}
	return epoch, nil
}

// prerollBatches is how many of the writer's batches bsbm-mixed sends
// before it measures: one full cycle, the first delete included.
const prerollBatches = 5

// settle brings a bsbm-mixed store to the state it measures in, untimed:
// the first prerollBatches batches of ws applied back to back, one
// compaction, and a fresh warm-up. Before its first delete and its first
// compaction the store is faster — it serves the heap-resident seed it
// booted with, and deletes leave it slower for good — so measuring from
// boot made the figures depend on where those events fell in the run.
func settle(t target, ws *writeStream, p params, check checker) ([]batch, uint64, error) {
	ctx := context.Background()
	var sent []batch
	for i := 0; i < prerollBatches; i++ {
		b := ws.next()
		n, err := t.write(ctx, b)
		if err == nil && n != len(b.triples) {
			err = fmt.Errorf("acknowledged %d of %d triples", n, len(b.triples))
		}
		if err != nil {
			return nil, 0, fmt.Errorf("pre-roll batch %d: %w", i, err)
		}
		sent = append(sent, b)
	}
	if err := t.compact(ctx); err != nil {
		return nil, 0, fmt.Errorf("settling compaction: %w", err)
	}
	epoch, err := warmUp(t, p, check)
	return sent, epoch, err
}

// loadSpecFor is the traffic of the workload. Both workloads read over
// one closed-loop connection: with two, the readers, the generator's
// response decoding and the server oversubscribed the 2-vCPU machine
// the benchmark was sized on, and the runs measured its scheduler.
func loadSpecFor(r *run, mixed bool, d time.Duration) loadSpec {
	spec := loadSpec{
		seed: r.seed, products: r.p.products, readers: 1,
		analyticLimit: r.p.analyticLimit, duration: d,
	}
	if mixed {
		spec.summaryEvery = r.p.summaryEvery
		spec.writes = newWriteStream(r.seed, r.p.products, r.p.batchTriples, r.p.writeEvery)
		spec.compactEvery = min(r.p.compactEvery, d/2)
	}
	return spec
}

// queryLatencies pools the latencies of the four query classes.
func (p *phaseResult) queryLatencies() latencies {
	var all latencies
	for c := class(0); c < classSummary; c++ {
		all = append(all, p.lat[c]...)
	}
	return all
}

// p99Metric reports the p99 of xs as name, or says that xs has too few
// samples for one. It never substitutes a lower percentile.
func (r *run) p99Metric(name string, xs []float64) {
	v, ok := percentile(xs, 0.99)
	if !ok {
		r.say("metric   %-28s n/a ms (n=%d: a p99 needs %d samples beyond it)", name, len(xs), minBeyond)
		return
	}
	r.metric(nil, name, v, "ms", len(xs))
}

// requireDelete fails a bsbm-mixed phase that sent no delete batch: the
// post-delete state (tombstones, slower counts) is part of what the
// workload measures, so a phase too short to reach one measures
// something else.
func requireDelete(phase string, res *phaseResult) error {
	for _, b := range res.batches {
		if b.del {
			return nil
		}
	}
	return fmt.Errorf("the %s phase sent %d write batches and no delete: --seconds is too short for bsbm-mixed", phase, len(res.batches))
}

// runServe is bsbm-read (mixed=false) and bsbm-mixed (mixed=true).
func runServe(r *run, mixed bool) error {
	data, err := genBSBM(r)
	if err != nil {
		return err
	}
	r.stage("generate")
	logPath := filepath.Join(r.work, "rdfsumd.log")
	logf, err := os.Create(logPath)
	if err != nil {
		return err
	}
	defer logf.Close()
	r.prop("server_flags", "-live DIR -addr 127.0.0.1:PORT -log-level warn (defaults: -max-stale 0, -maintain weak, fsync every batch, prune gate weak)")

	var check checker = emptyChecker
	var rc *readChecker
	if !mixed {
		rc = newReadChecker(data.ref, r.p.analyticLimit)
		check = rc.check
		for _, text := range append(append([]string{}, analyticMix...), emptyMix...) {
			if _, _, err := rc.expected(text); err != nil {
				return err
			}
		}
	}

	// Set-up: start to ready, warm-up included, r.p.setups times.
	storeDir := filepath.Join(r.work, "store")
	if !mixed {
		srv, err := startServer(r.bin, storeDir, data.ds.path, logf)
		if err != nil {
			return err
		}
		_, err = newClient(srv.base).Compact(context.Background())
		srv.stop()
		if err != nil {
			return fmt.Errorf("compacting the seeded store: %w", err)
		}
	}
	setups := 1
	if !r.trace {
		setups = r.p.setups
	}
	var srv *server
	var setupS []float64
	var epoch uint64
	for i := 0; i < setups; i++ {
		seed := ""
		if mixed {
			os.RemoveAll(storeDir)
			seed = data.ds.path
		}
		t0 := time.Now()
		srv, err = startServer(r.bin, storeDir, seed, logf)
		if err != nil {
			return err
		}
		epoch, err = warmUp(newHTTPTarget(srv.base, 1), r.p, check)
		if err != nil {
			srv.stop()
			return err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		if i < setups-1 {
			srv.stop()
		}
	}
	defer srv.stop()
	r.prop("setup_runs_s", "%.3f", setupS)
	r.stage("set-up")

	spec := loadSpecFor(r, mixed, r.duration())
	var preroll []batch
	if mixed {
		if preroll, epoch, err = settle(newHTTPTarget(srv.base, 1), spec.writes, r.p, check); err != nil {
			return err
		}
	}
	before, err := scrape(srv.base)
	if err != nil {
		return err
	}
	cpu0, err := procCPUSeconds(srv.cmd.Process.Pid)
	if err != nil {
		return err
	}
	res := runLoad(newHTTPTarget(srv.base, spec.readers), spec, epoch, check)
	cpu1, err := procCPUSeconds(srv.cmd.Process.Pid)
	if err != nil {
		return err
	}
	after, err := scrape(srv.base)
	if err != nil {
		return err
	}
	stats, err := newClient(srv.base).Stats(context.Background())
	if err != nil {
		return err
	}
	rss := srv.peakRSSMB()
	r.count(res.attempted, res.failed)
	r.stage("http phase")

	if mixed {
		if err := requireDelete("http", res); err != nil {
			return err
		}
		if err := checkMixedEnd(r, data, srv, append(preroll, res.batches...)); err != nil {
			return err
		}
	}
	srv.stop()
	disk := dirBytes(storeDir)
	r.stage("end checks")

	reportPhase(r, "http", res, spec)
	q := res.queryLatencies()
	qps := float64(len(q)) / res.elapsed.Seconds()
	r.metric(nil, "query_p50_ms", median(q), "ms", len(q))
	r.p99Metric("query_p99_ms", q)
	r.metric(nil, "query_qps", qps, "1/s", len(q))
	if mixed {
		r.metric(nil, "ingest_p50_ms", median(res.ingest), "ms", len(res.ingest))
		r.p99Metric("ingest_p99_ms", res.ingest)
		r.metric(nil, "summary_p50_ms", median(res.lat[classSummary]), "ms", len(res.lat[classSummary]))
	}
	r.metric(nil, "disk_bytes_per_triple", float64(disk)/float64(stats.Triples), "B", int(stats.Triples))
	if !r.trace {
		reads := res.readQueries() + len(res.lat[classSummary])
		r.metric(r.e2e, "cpu_ms_per_op", (cpu1-cpu0)*1000/float64(reads), "ms", reads)
		r.metric(r.e2e, "setup_s", median(setupS), "s", len(setupS))
		r.metric(r.e2e, "rss_peak_mb", rss, "MB", 1)
		reportScrape(r, before, after, nil)
		return nil
	}
	r.metric(r.layer, "store.index_runs", float64(stats.IndexRuns), "count", 1)
	r.metric(r.layer, "store.tombstones", float64(stats.IndexTombstones), "count", 1)
	return traceServe(r, data, mixed, storeDir, res, before, after)
}

// checkMixedEnd is bsbm-mixed's end-of-run gate: the quiesced server's
// triple count and a fixed probe-query set must match an in-memory
// rdfsum.NewLive fed the same batches.
func checkMixedEnd(r *run, data *bsbmData, srv *server, batches []batch) error {
	mirror, err := mirrorOf(data.ds.path, batches)
	if err != nil {
		return err
	}
	failures, err := compareEndState(httpEnd{newClient(srv.base)}, mirror, endProbes(r.seed, r.p.products))
	if err != nil {
		return err
	}
	for _, f := range failures {
		r.say("FAIL     end state: %s", f)
	}
	r.prop("end_state_check", "triple count + %d probes, %d failed", len(endProbes(r.seed, r.p.products)), len(failures))
	r.count(1+len(endProbes(r.seed, r.p.products)), len(failures))
	return nil
}

// mirrorOf is the reference store: the dump in a memory-only
// rdfsum.NewLive, fed the batches in order.
func mirrorOf(dump string, batches []batch) (*rdfsum.Live, error) {
	g, err := rdfsum.LoadFile(dump, nil)
	if err != nil {
		return nil, err
	}
	mirror := rdfsum.NewLive(g)
	for _, b := range batches {
		if b.del {
			_, err = mirror.DeleteBatch(b.triples)
		} else {
			err = mirror.AddBatch(b.triples)
		}
		if err != nil {
			return nil, err
		}
	}
	return mirror, nil
}

// endProbes are the end-state probe queries. The unbounded analytic
// joins are left out — their full answers take seconds to enumerate;
// offersQuery and analyticMix[2] see every added and deleted offer and
// review, the lookups those of the five products the writer favours.
func endProbes(seed uint64, products int) []string {
	probes := append([]string{offersQuery, analyticMix[2], analyticMix[3]}, emptyMix...)
	pop := newPopularity(nil, seed^writeRanking, products)
	for _, p := range pop.rank[:min(5, products)] {
		probes = append(probes, lookupQuery(p), reviewsQuery(p))
	}
	return probes
}

// endState reads the final state of the system under test.
type endState interface {
	triples() (int, error)
	rows(text string) ([][]string, error)
}

type httpEnd struct{ cl *client.Client }

func (h httpEnd) triples() (int, error) {
	st, err := h.cl.Stats(context.Background())
	if err != nil {
		return 0, err
	}
	return st.Triples, nil
}

func (h httpEnd) rows(text string) ([][]string, error) {
	res, err := h.cl.Query(context.Background(), text, &clientQueryAll)
	if err != nil {
		return nil, err
	}
	return res.Rows, nil
}

// liveRows evaluates a probe on a store the way the reference does.
func liveRows(lv *rdfsum.Live, text string) ([][]string, error) {
	q, err := rdfsum.ParseQuery(text)
	if err != nil {
		return nil, err
	}
	snap := lv.Snapshot()
	res, err := rdfsum.EvalQueryWithOptions(snap.Graph, snap.Index, q, nil)
	if err != nil {
		return nil, err
	}
	return termRows(res.Rows), nil
}

// compareEndState lists every way got differs from the mirror.
func compareEndState(got endState, mirror *rdfsum.Live, probes []string) ([]string, error) {
	var failures []string
	n, err := got.triples()
	if want := int(mirror.Stats().Triples); err != nil || n != want {
		failures = append(failures, fmt.Sprintf("triple count %d (err %v), mirror %d", n, err, want))
	}
	for _, text := range probes {
		want, err := liveRows(mirror, text)
		if err != nil {
			return nil, err
		}
		rows, err := got.rows(text)
		if err != nil || !slices.Equal(canonRows(rows), canonRows(want)) {
			failures = append(failures, fmt.Sprintf("probe: %d rows (err %v), mirror %d rows: %.100s", len(rows), err, len(want), text))
		}
	}
	return failures, nil
}

// termRows renders engine rows as the HTTP API does.
func termRows(rows [][]rdf.Term) [][]string {
	out := make([][]string, len(rows))
	for i, row := range rows {
		out[i] = make([]string, len(row))
		for j, t := range row {
			out[i][j] = t.String()
		}
	}
	return out
}

// reportPhase prints a phase's latencies and workload properties.
func reportPhase(r *run, name string, res *phaseResult, spec loadSpec) {
	reads := res.readQueries() + len(res.lat[classSummary])
	writer := ", no writer"
	if w := spec.writes; w != nil {
		writer = fmt.Sprintf(" + 1 open-loop writer, %d triples every %v after %d pre-roll batches, compact every %v", w.size, w.every, prerollBatches, spec.compactEvery)
	}
	r.prop(name+".load", "%d closed-loop reader(s)%s", spec.readers, writer)
	r.prop(name+".read_write_split", "%d reads / %d write batches", reads, len(res.batches))
	if res.queries > 0 {
		r.prop(name+".repeat_share", "%.4f of query texts were sent before", float64(res.repeats)/float64(res.queries))
		r.prop(name+".first_after_epoch_share", "%.4f (%d of %d queries saw a new epoch first)", float64(res.firstAfterEpoch)/float64(res.queries), res.firstAfterEpoch, res.queries)
	}
	for c := class(0); c < numClasses; c++ {
		if n := len(res.lat[c]); n > 0 {
			line := res.lat[c].summary()
			if c != classSummary {
				line += fmt.Sprintf(" rows/query=%.1f", float64(res.rows[c])/float64(n))
			}
			r.prop(name+"."+c.String(), "%s", line)
		}
	}
	if len(res.lateness) > 0 {
		_, lmax := 0.0, 0.0
		for _, l := range res.lateness {
			lmax = max(lmax, l)
		}
		r.prop(name+".generator_lateness", "p50=%.3fms max=%.3fms over %d batches", median(res.lateness), lmax, len(res.lateness))
		r.prop(name+".ingest", "%s", res.ingest.summary())
		r.prop(name+".compactions", "%s; stalled batches %s", res.compacts.summary(), res.stall.summary())
	}
	if len(res.at) > 0 {
		const windows = 5
		w := spec.duration.Seconds() / windows
		var line []string
		for i := 0; i < windows; i++ {
			var l latencies
			for j, at := range res.at {
				if at >= float64(i)*w && at < float64(i+1)*w {
					l = append(l, res.atLat[j])
				}
			}
			line = append(line, fmt.Sprintf("[%.0f/s p50=%.3f]", float64(len(l))/w, median(l)))
		}
		r.prop(name+".timeline", "%s", strings.Join(line, " "))
	}
	for _, f := range res.failures {
		r.say("FAIL     %s", f)
	}
}
