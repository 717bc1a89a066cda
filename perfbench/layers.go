package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"rdfsum"
	"rdfsum/client"
	"rdfsum/internal/dict"
	"rdfsum/internal/obs"
	"rdfsum/internal/query"
	"rdfsum/internal/store"
)

// layerMetrics is every per-layer metric, in report order. A workload
// that does not exercise a layer reports 0 for it.
var layerMetrics = []struct{ name, unit string }{
	{"http.query_overhead_ms", "ms"},
	{"http.encode_us_per_row", "us"},
	{"query.parse_us", "us"},
	{"query.compile_us", "us"},
	{"query.execute_us", "us"},
	{"query.allocs_per_query", "count"},
	{"query.enumerated_per_row", "ratio"},
	{"query.qerror_median", "ratio"},
	{"query.pruned_share", "ratio"},
	{"store.count_ns", "ns"},
	{"store.allocs_per_count", "count"},
	{"store.scan_ns_per_triple", "ns"},
	{"store.index_runs", "count"},
	{"store.tombstones", "count"},
	{"core.weights_builds", "count"},
	{"core.weights_ms", "ms"},
	{"core.pruner_builds", "count"},
	{"core.pruner_ms", "ms"},
	{"core.summary_builds", "count"},
	{"core.summary_ms", "ms"},
	{"core.lazy_builds", "count"},
	{"core.summarize_ms.weak", "ms"},
	{"core.summarize_ms.strong", "ms"},
	{"core.summarize_ms.typed-weak", "ms"},
	{"core.summarize_ms.typed-strong", "ms"},
	{"core.summarize_ms.type-based", "ms"},
	{"core.summarize_all_ms", "ms"},
	{"live.ingest_ms", "ms"},
	{"live.apply_ms", "ms"},
	{"live.compact_ms", "ms"},
	{"live.compact_stall_ms", "ms"},
	{"live.wal_bytes_per_triple", "B"},
	{"live.open_ms", "ms"},
	{"load.mtriples_per_s", "1/s"},
	{"load.body_parse_us", "us"},
	{"trace.overhead_ratio", "ratio"},
}

var clientQueryAll = client.QueryOptions{Limit: 100_000}

// disagreeFactor is how far a server histogram's mean may sit from the
// replay's span mean before the pair is flagged: beyond it the replay
// likely no longer makes the calls the handler makes.
const disagreeFactor = 3.0

// scrapePair pairs a server histogram with the replay span it should
// agree with ("" = no replay counterpart).
var scrapePairs = []struct{ hist, match, span string }{
	{"rdfsum_query_compile_seconds", "", "query.compile"},
	{"rdfsum_query_execute_seconds", "", "query.execute"},
	{"rdfsum_http_request_duration_seconds", `route="/v1/query",method="POST"`, "http.query"},
	{"rdfsum_http_request_duration_seconds", `route="/v1/summary",method="GET"`, "http.summary"},
	{"rdfsum_http_request_duration_seconds", `route="/v1/triples",method="POST"`, ""},
	{"rdfsum_http_request_duration_seconds", `route="/v1/triples",method="DELETE"`, ""},
	{"rdfsum_http_request_duration_seconds", `route="/v1/compact",method="POST"`, "live.compact"},
	{"rdfsum_ingest_queue_wait_seconds", "", ""},
	{"rdfsum_ingest_queue_drain_seconds", "", ""},
	{"rdfsum_wal_append_seconds", "", ""},
	{"rdfsum_wal_fsync_seconds", "", ""},
	{"rdfsum_epoch_publish_seconds", "", ""},
	{"rdfsum_index_fold_seconds", "", ""},
}

// reportScrape prints the server histograms' deltas over the HTTP phase,
// beside the replay's span means when spans exist, and flags pairs that
// disagree by more than disagreeFactor.
func reportScrape(r *run, before, after map[string]float64, spans map[string]*layerTimes) {
	for _, p := range scrapePairs {
		d := histDeltas(before, after, p.hist, p.match)
		name := p.hist
		if p.match != "" {
			name += "{" + p.match + "}"
		}
		line := fmt.Sprintf("count=%.0f mean=%.4fms", d.count, d.meanMS())
		if lt := spans[p.span]; p.span != "" && lt != nil && d.count > 0 {
			replay := mean(lt.dur)
			verdict := "agree"
			if ratio := d.meanMS() / replay; ratio > disagreeFactor || ratio < 1/disagreeFactor {
				verdict = fmt.Sprintf("DISAGREE (beyond %gx)", disagreeFactor)
			}
			line += fmt.Sprintf(" | replay span %s mean=%.4fms n=%d: %s", p.span, replay, len(lt.dur), verdict)
		}
		r.say("scrape   %-60s %s", name, line)
	}
}

// inprocHist scrapes this process's own obs registry, which the
// in-process replay's library calls record into.
func inprocHist() map[string]float64 {
	var buf bytes.Buffer
	obs.Default.WritePrometheus(&buf)
	m, _ := parseExposition(&buf)
	return m
}

// traceServe is the traced part of bsbm-read and bsbm-mixed: the same
// stream replayed in-process with spans off, then on, and the
// deterministic count-only pass.
func traceServe(r *run, data *bsbmData, mixed bool, storeDir string, httpRes *phaseResult, before, after map[string]float64) error {
	replay := r.duration()

	// load: the gzipped dump through rdfsum.LoadFile.
	t0 := time.Now()
	g, err := rdfsum.LoadFile(data.ds.path, nil)
	if err != nil {
		return err
	}
	r.metric(r.layer, "load.mtriples_per_s", float64(g.NumEdges())/time.Since(t0).Seconds()/1e6, "1/s", 1)
	r.stage("trace: load")

	// open opens the store a replay serves: the compacted store for
	// bsbm-read, a fresh store seeded from the dump for bsbm-mixed.
	open := func(i int) (*rdfsum.Live, time.Duration, error) {
		if !mixed {
			t0 := time.Now()
			lv, err := rdfsum.OpenLive(storeDir, nil)
			return lv, time.Since(t0), err
		}
		seed := g
		if i > 0 {
			if seed, err = rdfsum.LoadFile(data.ds.path, nil); err != nil {
				return nil, 0, err
			}
		}
		dir := filepath.Join(r.work, fmt.Sprintf("replay-%d", i))
		t0 := time.Now()
		lv, err := rdfsum.OpenLive(dir, &rdfsum.LiveOptions{Seed: seed})
		return lv, time.Since(t0), err
	}
	var check checker = emptyChecker
	if !mixed {
		check = newReadChecker(data.ref, r.p.analyticLimit).check
	}
	var off, on *phaseResult
	var tr *tracer
	var lazy uint64
	var summaryBuilds [rdfsum.NumKinds]int64
	var drain histDelta
	for i, traced := range []bool{false, true} {
		lv, openTime, err := open(i)
		if err != nil {
			return err
		}
		if i == 0 {
			r.metric(r.layer, "live.open_ms", ms(openTime), "ms", 1)
		}
		t := newInprocTarget(lv)
		spec := loadSpecFor(r, mixed, replay)
		epoch, err := warmUp(t, r.p, check)
		if err == nil && mixed {
			_, epoch, err = settle(t, spec.writes, r.p, check)
		}
		if err != nil {
			return err
		}
		if traced {
			tr = newTracer(spec.readers)
			t.tr = tr
		}
		lazy0 := lazyBuilds(lv)
		var built0 [rdfsum.NumKinds]int64
		for k := range built0 {
			built0[k] = t.summaryBuilds[k].Load()
		}
		h0 := inprocHist()
		res := runLoad(t, spec, epoch, check)
		drain = histDeltas(h0, inprocHist(), "rdfsum_ingest_queue_drain_seconds", "")
		lazy = lazyBuilds(lv) - lazy0
		for k := range summaryBuilds {
			summaryBuilds[k] = t.summaryBuilds[k].Load() - built0[k]
		}
		t.close()
		if i == 0 && !mixed {
			if _, err := countPass(r, lv, nil, mixed); err != nil {
				return err
			}
		}
		if err := lv.Close(); err != nil {
			return err
		}
		r.stage(fmt.Sprintf("trace: replay %d", i))
		r.count(res.attempted, res.failed)
		name := map[bool]string{false: "replay_spans_off", true: "replay_spans_on"}[traced]
		if mixed {
			if err := requireDelete(name, res); err != nil {
				return err
			}
		}
		reportPhase(r, name, res, spec)
		if traced {
			on = res
		} else {
			off = res
		}
	}
	var rebuild time.Duration // one ComputeWeights on the count pass's state
	if mixed {
		if rebuild, err = countPass(r, nil, data, mixed); err != nil {
			return err
		}
	}
	r.stage("trace: count pass")

	spans := tr.byName()
	httpQ, offQ, onQ := httpRes.queryLatencies(), off.queryLatencies(), on.queryLatencies()
	r.metric(r.layer, "http.query_overhead_ms", median(httpQ)-median(offQ), "ms", len(httpQ))
	r.metric(r.layer, "trace.overhead_ratio", median(onQ)/median(offQ)-1, "ratio", len(onQ))
	if enc := spans["http.encode"]; enc != nil && tr.rows() > 0 {
		r.metric(r.layer, "http.encode_us_per_row", sum(enc.dur)*1000/float64(tr.rows()), "us", int(tr.rows()))
	}
	medianUS := func(metric, name string) {
		if lt := spans[name]; lt != nil {
			r.metric(r.layer, metric, median(lt.dur)*1000, "us", len(lt.dur))
		}
	}
	medianUS("query.parse_us", "query.parse")
	medianUS("query.compile_us", "query.compile")
	medianUS("query.execute_us", "query.execute")
	medianUS("load.body_parse_us", "load.body_parse")
	builds := func(count, dur, name string) {
		lt := spans[name]
		if lt == nil {
			lt = &layerTimes{}
		}
		r.metric(r.layer, count, float64(len(lt.dur)), "count", len(lt.dur))
		r.metric(r.layer, dur, mean(lt.dur), "ms", len(lt.dur))
	}
	builds("core.weights_builds", "core.weights_ms", "core.weights")
	builds("core.pruner_builds", "core.pruner_ms", "core.pruner")
	builds("core.summary_builds", "core.summary_ms", "core.summary.build")
	var perKind []string
	for _, k := range rdfsum.Kinds {
		perKind = append(perKind, fmt.Sprintf("%s=%d", k, summaryBuilds[k]))
	}
	r.prop("replay_spans_on.summary_builds", "%s", strings.Join(perKind, " "))
	r.metric(r.layer, "core.lazy_builds", float64(lazy), "count", 1)
	if mixed {
		r.prop("replay_spans_on.epochs", "%d published (%d write batches + %d compactions); %d weights builds",
			len(on.ingest)+len(on.compacts), len(on.ingest), len(on.compacts), int(r.layer["core.weights_builds"].Value))
		checkEpochCost(r, httpRes, off, rebuild, int(r.layer["core.weights_builds"].Value))
		if lt := spans["live.ingest"]; lt != nil {
			r.metric(r.layer, "live.ingest_ms", median(lt.dur), "ms", len(lt.dur))
		}
		r.metric(r.layer, "live.apply_ms", drain.meanMS(), "ms", int(drain.count))
		if lt := spans["live.compact"]; lt != nil {
			r.metric(r.layer, "live.compact_ms", mean(lt.dur), "ms", len(lt.dur))
		}
		r.metric(r.layer, "live.compact_stall_ms", median(on.stall), "ms", len(on.stall))
	}
	names := make([]string, 0, len(spans))
	for name := range spans {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		lt := spans[name]
		r.say("span     %-28s n=%d p50=%.4fms self_p50=%.4fms total=%.1fms self_total=%.1fms",
			name, len(lt.dur), median(lt.dur), median(lt.self), sum(lt.dur), sum(lt.self))
	}
	reportScrape(r, before, after, spans)
	r.prop("spans", "%d recorded", tr.count())
	if err := os.MkdirAll(r.traceDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(r.traceDir, r.workload+".spans.jsonl")
	if err := tr.writeJSONL(path); err != nil {
		return err
	}
	r.prop("spans_file", "%s", path)
	return nil
}

// checkEpochCost ties the replay's weights rebuilds to the server's. The
// replay mirrors rdfsumd's staleness floor (planStatsMaxStale), and no
// server histogram covers ComputeWeights, so the queries that paid for a
// rebuild — those slower than half of one (timed by the count pass) —
// are counted in the HTTP phase and in the spans-off replay. If the
// server stops (or starts) rebuilding per epoch and the replay does not
// follow, the two counts part.
func checkEpochCost(r *run, httpRes, off *phaseResult, rebuild time.Duration, builds int) {
	threshold := ms(rebuild) / 2
	slow := func(p *phaseResult) int {
		n := 0
		for _, l := range p.queryLatencies() {
			if l > threshold {
				n++
			}
		}
		return n
	}
	h, o := slow(httpRes), slow(off)
	verdict := "agree"
	if ratio := float64(h+1) / float64(o+1); ratio > disagreeFactor || ratio < 1/disagreeFactor {
		verdict = fmt.Sprintf("DISAGREE (beyond %gx)", disagreeFactor)
	}
	r.say("scrape   %-60s queries over %.1fms: http=%d replay=%d (replay weights builds %d): %s",
		"epoch rebuild cost", threshold, h, o, builds, verdict)
}

// lazyBuilds sums Live.Status's lazy rebuild counters.
func lazyBuilds(lv *rdfsum.Live) uint64 {
	var n uint64
	for _, st := range lv.Status() {
		n += st.LazyBuilds
	}
	return n
}

// countPass measures the deterministic counts on a fixed state: the first
// r.p.countQueries queries of connection 0's stream, sequentially, with
// nothing else running. bsbm-read uses the opened compacted store;
// bsbm-mixed seeds a fresh durable store and applies the first
// r.p.countBatches write batches, which also yields WAL bytes per triple.
// It returns the time of one ComputeWeights on that state.
func countPass(r *run, lv *rdfsum.Live, data *bsbmData, mixed bool) (time.Duration, error) {
	if mixed {
		g, err := rdfsum.LoadFile(data.ds.path, nil)
		if err != nil {
			return 0, err
		}
		if lv, err = rdfsum.OpenLive(filepath.Join(r.work, "counts"), &rdfsum.LiveOptions{Seed: g}); err != nil {
			return 0, err
		}
		defer lv.Close()
		wal0 := lv.Stats().WALBytes
		ws := newWriteStream(r.seed, r.p.products, r.p.batchTriples, r.p.writeEvery)
		triples := 0
		for i := 0; i < r.p.countBatches; i++ {
			b := ws.next()
			if b.del {
				_, err = lv.DeleteBatch(b.triples)
			} else {
				err = lv.AddBatch(b.triples)
			}
			if err != nil {
				return 0, err
			}
			triples += len(b.triples)
		}
		r.metric(r.layer, "live.wal_bytes_per_triple", float64(lv.Stats().WALBytes-wal0)/float64(triples), "B", triples)
	}
	snap := lv.Snapshot()
	sum, _, err := lv.Summary(rdfsum.Weak, 0)
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	weights := sum.ComputeWeights()
	rebuild := time.Since(t0)
	pruner := rdfsum.NewQueryPruner(sum)
	// The queries run with the row limits they are served with.
	rs := newReadStream(r.seed, 0, r.p.products, 0)
	var qs []*rdfsum.Query
	var limits []int
	for len(qs) < r.p.countQueries {
		req := rs.next()
		q, err := rdfsum.ParseQuery(req.text)
		if err != nil {
			return 0, err
		}
		limit := serverDefaultLimit
		if req.class == classAnalytic {
			limit = r.p.analyticLimit
		}
		qs = append(qs, q)
		limits = append(limits, limit)
	}

	// Index.Count over every pattern of the queries.
	type pat struct{ s, p, o dict.ID }
	var pats []pat
	d := snap.Graph.Dict()
	for _, q := range qs {
		for _, p := range q.Patterns {
			ids := [3]dict.ID{}
			ok := true
			for i, t := range []query.Term{p.S, p.P, p.O} {
				if t.IsVar {
					continue
				}
				id, found := d.Lookup(t.Value)
				ok = ok && found
				ids[i] = id
			}
			if ok {
				pats = append(pats, pat{ids[0], ids[1], ids[2]})
			}
		}
	}
	allocs := func(fn func()) uint64 {
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		fn()
		runtime.ReadMemStats(&m1)
		return m1.Mallocs - m0.Mallocs
	}
	a := allocs(func() {
		for _, p := range pats {
			snap.Index.Count(p.s, p.p, p.o)
		}
	})
	r.metric(r.layer, "store.allocs_per_count", float64(a)/float64(len(pats)), "count", len(pats))
	a = allocs(func() {
		for i, q := range qs {
			plan, err := rdfsum.CompileQuery(snap.Graph, q, weights)
			if err == nil {
				plan.Eval(snap.Index, &query.EvalOptions{Limit: limits[i], Pruner: pruner})
			}
		}
	})
	r.metric(r.layer, "query.allocs_per_query", float64(a)/float64(len(qs)), "count", len(qs))
	r.stage("count pass: allocs")

	var enumerated, rows int64
	var qerr []float64
	pruned := 0
	for i, q := range qs {
		plan, err := rdfsum.CompileQuery(snap.Graph, q, weights)
		if err != nil {
			return 0, err
		}
		res, err := plan.Eval(snap.Index, &query.EvalOptions{Limit: limits[i], Pruner: pruner, Explain: true})
		if err != nil {
			return 0, err
		}
		ex := res.Explain
		if ex.Pruned {
			pruned++
			continue
		}
		for _, st := range ex.Steps {
			enumerated += st.Actual
		}
		rows += int64(len(res.Rows))
		if ex.QueryEst >= 0 && !res.Truncated { // a capped answer is no cardinality
			est, act := max(float64(ex.QueryEst), 1), max(float64(len(res.Rows)), 1)
			qerr = append(qerr, max(est/act, act/est))
		}
	}
	r.metric(r.layer, "query.enumerated_per_row", float64(enumerated)/float64(max(rows, 1)), "ratio", int(rows))
	r.metric(r.layer, "query.qerror_median", median(qerr), "ratio", len(qerr))
	r.metric(r.layer, "query.pruned_share", float64(pruned)/float64(len(qs)), "ratio", len(qs))
	r.stage("count pass: explain")

	// Timed: Index.Count and Index.ForEach over the same patterns.
	n, t0 := 0, time.Now()
	for time.Since(t0) < 200*time.Millisecond {
		for _, p := range pats {
			snap.Index.Count(p.s, p.p, p.o)
		}
		n += len(pats)
	}
	r.metric(r.layer, "store.count_ns", float64(time.Since(t0).Nanoseconds())/float64(n), "ns", n)
	visited, t0 := 0, time.Now()
	for time.Since(t0) < 200*time.Millisecond {
		for _, p := range pats {
			snap.Index.ForEach(p.s, p.p, p.o, func(store.Triple) bool { visited++; return true })
		}
	}
	r.metric(r.layer, "store.scan_ns_per_triple", float64(time.Since(t0).Nanoseconds())/float64(max(visited, 1)), "ns", visited)
	return rebuild, nil
}
