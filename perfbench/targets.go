package main

import (
	"bytes"
	"compress/gzip"
	"context"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"

	"rdfsum"
	"rdfsum/client"
	"rdfsum/internal/httpapi"
	"rdfsum/internal/query"
)

// httpTarget drives rdfsumd through the typed client, one client (and so
// one TCP connection) per logical connection.
type httpTarget struct {
	readers []*client.Client
	writer  *client.Client
}

func newHTTPTarget(base string, readers int) *httpTarget {
	t := &httpTarget{writer: newClient(base)}
	for i := 0; i < readers; i++ {
		t.readers = append(t.readers, newClient(base))
	}
	return t
}

func (t *httpTarget) query(ctx context.Context, conn int, text string, limit int) (queryOut, error) {
	res, err := t.readers[conn].Query(ctx, text, &client.QueryOptions{Limit: limit})
	if err != nil {
		return queryOut{}, err
	}
	return queryOut{rows: res.Rows, truncated: res.Truncated, epoch: res.Epoch}, nil
}

func (t *httpTarget) summary(ctx context.Context, conn int, kind string) error {
	_, err := t.readers[conn].Summary(ctx, kind)
	return err
}

func (t *httpTarget) write(ctx context.Context, b batch) (int, error) {
	opts := &client.IngestOptions{Compression: rdfsum.CompressionGzip}
	if b.del {
		res, err := t.writer.DeleteStream(ctx, strings.NewReader(b.body), opts)
		if err != nil {
			return 0, err
		}
		return res.Removed, nil
	}
	res, err := t.writer.IngestStream(ctx, strings.NewReader(b.body), opts)
	if err != nil {
		return 0, err
	}
	return res.Added, nil
}

func (t *httpTarget) compact(ctx context.Context) error {
	_, err := t.writer.Compact(ctx)
	return err
}

// rdfsumd's serving policy, mirrored by the replay. checkEpochCost flags
// a replay whose per-epoch rebuilds no longer match the server's.
const (
	planStatsMaxStale  = 32     // floor on the planner-weights staleness tolerance
	serverDefaultLimit = 10_000 // row limit of a query sent without ?limit
)

// inprocTarget replays the handler's public library calls in-process, in
// the handler's order and with its caching rules, recording a span
// around each call when tr is non-nil. It adds no tracing inside the
// library.
type inprocTarget struct {
	lv    *rdfsum.Live
	queue *rdfsum.IngestQueue
	tr    *tracer

	prunerMu    sync.Mutex
	prunerEpoch uint64
	pruner      *rdfsum.QueryPruner

	weightsMu    sync.Mutex
	weightsEpoch uint64
	weights      *rdfsum.Weights

	summaryBuilds [rdfsum.NumKinds]atomic.Int64 // summary calls that built, per kind
}

// newInprocTarget serves lv with rdfsumd's default ingest queue; set tr
// to record spans.
func newInprocTarget(lv *rdfsum.Live) *inprocTarget {
	return &inprocTarget{lv: lv, queue: rdfsum.NewIngestQueue(lv, 0, 0)}
}

func (t *inprocTarget) close() { t.queue.Close() }

// planStats is rdfsumd's planStats: weak-summary weights, rebuilt when
// the weak summary (tolerating planStatsMaxStale epochs) moved.
func (t *inprocTarget) planStats(sp *spanCtx) *rdfsum.Weights {
	id := sp.begin("core.plan_stats")
	defer sp.end(id)
	sum, epoch, err := t.lv.Summary(rdfsum.Weak, planStatsMaxStale)
	if err != nil {
		return nil
	}
	t.weightsMu.Lock()
	defer t.weightsMu.Unlock()
	if t.weights == nil || t.weightsEpoch != epoch {
		b := sp.begin("core.weights")
		t.weights = sum.ComputeWeights()
		sp.end(b)
		t.weightsEpoch = epoch
	}
	return t.weights
}

// prunerFor is rdfsumd's pruner for the default weak gate at -max-stale 0.
func (t *inprocTarget) prunerFor(sp *spanCtx) (*rdfsum.QueryPruner, uint64, error) {
	id := sp.begin("core.prune_gate")
	defer sp.end(id)
	sum, epoch, err := t.lv.Summary(rdfsum.Weak, 0)
	if err != nil {
		return nil, 0, err
	}
	t.prunerMu.Lock()
	defer t.prunerMu.Unlock()
	if t.pruner == nil || t.prunerEpoch != epoch {
		b := sp.begin("core.pruner")
		t.pruner = rdfsum.NewQueryPruner(sum)
		sp.end(b)
		t.prunerEpoch = epoch
	}
	return t.pruner, t.prunerEpoch, nil
}

func (t *inprocTarget) query(_ context.Context, conn int, text string, limit int) (queryOut, error) {
	sp := t.tr.request(conn, "http.query")
	defer sp.finish()
	id := sp.begin("query.parse")
	q, err := rdfsum.ParseQuery(text)
	sp.end(id)
	if err != nil {
		return queryOut{}, err
	}
	if limit == 0 {
		limit = serverDefaultLimit
	}
	stats := t.planStats(sp)
	snap := t.lv.Snapshot()
	pruner, pruneEpoch, err := t.prunerFor(sp)
	if err != nil {
		return queryOut{}, err
	}
	opts := &query.EvalOptions{Limit: limit}
	if pruneEpoch >= snap.Epoch {
		opts.Pruner = pruner
	}
	id = sp.begin("query.compile")
	plan, err := rdfsum.CompileQuery(snap.Graph, q, stats)
	sp.end(id)
	if err != nil {
		return queryOut{}, err
	}
	id = sp.begin("query.execute")
	res, err := plan.Eval(snap.Index, opts)
	sp.end(id)
	if err != nil {
		return queryOut{}, err
	}
	id = sp.begin("http.encode")
	rows := make([][]string, 0, len(res.Rows))
	for _, row := range res.Rows {
		cells := make([]string, len(row))
		for i, term := range row {
			cells[i] = term.String()
		}
		rows = append(rows, cells)
	}
	httpapi.WriteJSON(discard{}, map[string]any{
		"vars": res.Vars, "rows": rows, "count": len(rows), "truncated": res.Truncated, "epoch": snap.Epoch,
	})
	sp.end(id)
	sp.addRows(len(rows))
	return queryOut{rows: rows, truncated: res.Truncated, epoch: snap.Epoch}, nil
}

func (t *inprocTarget) summary(_ context.Context, conn int, kind string) error {
	sp := t.tr.request(conn, "http.summary")
	defer sp.finish()
	k, err := rdfsum.ParseKind(kind)
	if err != nil {
		return err
	}
	// A call that materializes a new summary (the cached epoch moves) is
	// a cache miss: its span is named core.summary.build.
	cached := cachedEpoch(t.lv, k)
	id := sp.begin("core.summary")
	_, _, err = t.lv.Summary(k, 0)
	sp.end(id)
	if cachedEpoch(t.lv, k) != cached {
		t.summaryBuilds[k].Add(1)
		if sp != nil {
			sp.buf.spans[id].Name = "core.summary.build"
		}
	}
	return err
}

// cachedEpoch is the epoch of the summary of kind k the store last
// materialized.
func cachedEpoch(lv *rdfsum.Live, k rdfsum.Kind) uint64 {
	for _, st := range lv.Status() {
		if st.Kind == k {
			return st.CachedEpoch
		}
	}
	return 0
}

// gzBody is a batch body as the client uploads it, compressed outside
// the timed path.
func gzBody(body string) []byte {
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	zw.Write([]byte(body))
	zw.Close()
	return buf.Bytes()
}

func (t *inprocTarget) write(_ context.Context, b batch) (int, error) {
	body := gzBody(b.body)
	sp := t.tr.request(writerConn, "http.triples")
	defer sp.finish()
	id := sp.begin("load.body_parse")
	zr, err := rdfsum.NewCompressionReader(bytes.NewReader(body), rdfsum.CompressionGzip)
	if err != nil {
		sp.end(id)
		return 0, err
	}
	triples, err := rdfsum.Parse(zr)
	zr.Close()
	sp.end(id)
	if err != nil {
		return 0, err
	}
	id = sp.begin("live.ingest")
	defer sp.end(id)
	if b.del {
		n, _, err := t.queue.Delete(triples, int64(len(b.body)))
		return n, err
	}
	n, _, err := t.queue.Add(triples, int64(len(b.body)))
	return n, err
}

func (t *inprocTarget) compact(context.Context) error {
	sp := t.tr.request(writerConn, "http.compact")
	defer sp.finish()
	id := sp.begin("live.compact")
	defer sp.end(id)
	return t.lv.Compact()
}

// discard is an http.ResponseWriter that drops the body, so the
// replay's encode span measures JSON encoding alone.
type discard struct{}

func (discard) Header() http.Header         { return http.Header{} }
func (discard) Write(p []byte) (int, error) { return len(p), nil }
func (discard) WriteHeader(int)             {}
