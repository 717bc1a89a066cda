package main

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// queryOut is what the load loop needs back from one query.
type queryOut struct {
	rows      [][]string
	truncated bool
	epoch     uint64
}

// target is the system the load loop drives: the rdfsumd child over HTTP,
// or the in-process replay making the handler's library calls.
type target interface {
	query(ctx context.Context, conn int, text string, limit int) (queryOut, error)
	summary(ctx context.Context, conn int, kind string) error
	// write applies one batch and returns the acknowledged count
	// (added, or removed for deletes).
	write(ctx context.Context, b batch) (int, error)
	compact(ctx context.Context) error
}

// loadSpec fixes one phase's traffic: the seeded streams, the connection
// count and the writer schedule.
type loadSpec struct {
	seed          uint64
	products      int
	readers       int          // closed-loop read connections
	summaryEvery  int          // 1 in N reads is a summary (0 = none)
	analyticLimit int          // ?limit for the analytic class
	writes        *writeStream // the open-loop writer's batches (nil = no writer)
	compactEvery  time.Duration
	duration      time.Duration
}

// checker validates one query response; nil accepts everything.
type checker func(c class, text string, out queryOut) error

// phaseResult is everything one phase observed.
type phaseResult struct {
	elapsed   time.Duration
	lat       [numClasses]latencies
	at        []float64 // start offset (s) of each query in lat order of completion, any class
	atLat     []float64 // its latency (ms)
	rows      [numClasses]int64
	attempted int
	failed    int
	failures  []string

	queries         int
	repeats         int // queries whose text was already sent this phase
	firstAfterEpoch int // queries that were the first to see a new epoch

	batches  []batch // batches sent, in order
	ingest   latencies
	stall    latencies // ingest latency of batches overlapping a compaction
	lateness latencies // how late the writer sent each batch
	compacts latencies
}

func (r *phaseResult) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 8 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

func (r *phaseResult) merge(o *phaseResult) {
	r.at = append(r.at, o.at...)
	r.atLat = append(r.atLat, o.atLat...)
	for c := range o.lat {
		r.lat[c] = append(r.lat[c], o.lat[c]...)
		r.rows[c] += o.rows[c]
	}
	r.attempted += o.attempted
	r.queries += o.queries
	r.repeats += o.repeats
	r.firstAfterEpoch += o.firstAfterEpoch
	for _, f := range o.failures {
		r.fail("%s", f)
	}
	r.failed += o.failed - len(o.failures)
}

// readQueries is the read side's query count.
func (r *phaseResult) readQueries() int {
	n := 0
	for c := class(0); c < classSummary; c++ {
		n += len(r.lat[c])
	}
	return n
}

// runLoad drives t with spec's traffic: spec.readers closed-loop
// connections running the read stream, plus — when spec.writes is set —
// one open-loop writer connection that also compacts. startEpoch is the
// epoch the warm-up last saw.
func runLoad(t target, spec loadSpec, startEpoch uint64, check checker) *phaseResult {
	ctx := context.Background()
	start := time.Now()
	end := start.Add(spec.duration)
	var lastEpoch atomic.Uint64
	lastEpoch.Store(startEpoch)
	var seenMu sync.Mutex
	seen := map[string]bool{}

	results := make([]*phaseResult, spec.readers)
	var wg sync.WaitGroup
	for conn := 0; conn < spec.readers; conn++ {
		res := &phaseResult{}
		results[conn] = res
		wg.Add(1)
		go func(conn int) {
			defer wg.Done()
			rs := newReadStream(spec.seed, conn, spec.products, spec.summaryEvery)
			for time.Now().Before(end) {
				req := rs.next()
				res.attempted++
				t0 := time.Now()
				if req.class == classSummary {
					if err := t.summary(ctx, conn, req.text); err != nil {
						res.fail("summary %s: %v", req.text, err)
						continue
					}
					res.lat[classSummary].add(time.Since(t0))
					continue
				}
				limit := 0
				if req.class == classAnalytic {
					limit = spec.analyticLimit
				}
				out, err := t.query(ctx, conn, req.text, limit)
				d := time.Since(t0)
				if err != nil {
					res.fail("%s query: %v", req.class, err)
					continue
				}
				res.lat[req.class].add(d)
				res.at = append(res.at, t0.Sub(start).Seconds())
				res.atLat = append(res.atLat, ms(d))
				res.rows[req.class] += int64(len(out.rows))
				res.queries++
				seenMu.Lock()
				if seen[req.text] {
					res.repeats++
				}
				seen[req.text] = true
				seenMu.Unlock()
				for {
					cur := lastEpoch.Load()
					if out.epoch <= cur {
						break
					}
					if lastEpoch.CompareAndSwap(cur, out.epoch) {
						res.firstAfterEpoch++
						break
					}
				}
				if check != nil {
					if err := check(req.class, req.text, out); err != nil {
						res.fail("%s: %v", req.class, err)
					}
				}
			}
		}(conn)
	}
	var writer phaseResult
	if spec.writes != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			runWriter(ctx, t, spec, start, end, &writer)
		}()
	}
	wg.Wait()
	total := &phaseResult{elapsed: time.Since(start)}
	for _, r := range results {
		total.merge(r)
	}
	total.merge(&writer)
	total.batches = writer.batches
	total.ingest = writer.ingest
	total.stall = writer.stall
	total.lateness = writer.lateness
	total.compacts = writer.compacts
	return total
}

// runWriter is the open-loop writer: the i-th batch of the phase is due
// at start+i*every and its latency counts from then, so a stall delays
// every later batch's clock too. Compactions run on the same connection
// every compactEvery.
func runWriter(ctx context.Context, t target, spec loadSpec, start, end time.Time, res *phaseResult) {
	nextCompact := start.Add(spec.compactEvery)
	first := time.Duration(-1)
	type span struct{ from, to time.Time }
	var compactions []span
	type sent struct {
		due, ack time.Time
	}
	var acks []sent
	for {
		b := spec.writes.next()
		if first < 0 {
			first = b.due
		}
		due := start.Add(b.due - first)
		if !due.Before(end) {
			break
		}
		if spec.compactEvery > 0 && !due.Before(nextCompact) {
			time.Sleep(time.Until(nextCompact))
			nextCompact = nextCompact.Add(spec.compactEvery)
			res.attempted++
			c0 := time.Now()
			if err := t.compact(ctx); err != nil {
				res.fail("compact: %v", err)
			} else {
				res.compacts.add(time.Since(c0))
				compactions = append(compactions, span{c0, time.Now()})
			}
		}
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		res.lateness.add(max(0, time.Since(due)))
		res.attempted++
		n, err := t.write(ctx, b)
		ack := time.Now()
		res.batches = append(res.batches, b)
		if err != nil {
			res.fail("write batch %d: %v", len(res.batches), err)
			continue
		}
		if n != len(b.triples) {
			res.fail("write batch %d (delete=%v): acknowledged %d of %d triples", len(res.batches), b.del, n, len(b.triples))
		}
		res.ingest.add(ack.Sub(due))
		acks = append(acks, sent{due, ack})
	}
	for _, a := range acks {
		for _, c := range compactions {
			if a.due.Before(c.to) && a.ack.After(c.from) {
				res.stall.add(a.ack.Sub(a.due))
				break
			}
		}
	}
}
