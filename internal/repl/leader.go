// Package repl implements WAL-shipping replication: one writer (the
// leader) streams its generation snapshot and write-ahead log over HTTP
// to any number of read replicas (followers), which replay the records
// through the same tiered index and quotient engine and serve
// snapshot-isolated reads identically to the leader.
//
// The wire protocol is three GET endpoints under /v1/repl/ on the leader:
//
//	manifest   the current generation, WAL extent and framing version
//	snapshot   the generation's base snapshot, streamed (bootstrap)
//	wal        record-framed WAL bytes from (generation, offset), long-
//	           pollable; resumable at any record boundary
//
// A follower bootstraps by fetching the manifest and streaming the
// snapshot into a fresh in-memory live store, then tails the WAL and
// applies each record through Live.AddBatch/DeleteBatch — the same code
// path the leader's own recovery replay takes, so the replica's
// dictionary, tiered index and maintained summaries are bit-identical to
// the leader's at every applied offset. When the leader compacts, the
// tailed generation disappears; the follower detects the "gone" error
// code and re-bootstraps from the new snapshot. Transient disconnects
// retry with exponential backoff from the last applied record boundary.
package repl

import (
	"errors"
	"io"
	"net/http"
	"strconv"
	"time"

	"rdfsum/client"
	"rdfsum/internal/httpapi"
	"rdfsum/internal/live"
)

// maxWALWait caps a single /v1/repl/wal long-poll so followers re-issue
// requests (and re-validate the generation) at a bounded cadence.
const maxWALWait = time.Minute

// Leader serves a live store's replication state over HTTP. All handlers
// are read-only with respect to the store; any number of followers (or
// none) may tail concurrently.
type Leader struct {
	lv *live.Live
}

// NewLeader wraps a live store for replication serving. The store should
// be durable; on a memory-only store every endpoint reports the
// "memory_only" error code.
func NewLeader(lv *live.Live) *Leader { return &Leader{lv: lv} }

// Mount registers the replication endpoints on m under prefix (e.g.
// "/v1/repl").
func (ld *Leader) Mount(m *http.ServeMux, prefix string) {
	m.HandleFunc("GET "+prefix+"/manifest", ld.handleManifest)
	m.HandleFunc("GET "+prefix+"/snapshot", ld.handleSnapshot)
	m.HandleFunc("GET "+prefix+"/wal", ld.handleWAL)
}

// replState adapts live's replication errors to enveloped API errors.
func (ld *Leader) replState(w http.ResponseWriter) (live.ReplState, bool) {
	st, err := ld.lv.ReplState()
	if errors.Is(err, live.ErrNotDurable) {
		httpapi.WriteError(w, httpapi.Errorf(http.StatusConflict, httpapi.CodeMemoryOnly,
			"this store is memory-only; start the leader with -live to enable replication"))
		return st, false
	}
	if err != nil {
		httpapi.WriteError(w, err)
		return st, false
	}
	return st, true
}

func (ld *Leader) handleManifest(w http.ResponseWriter, _ *http.Request) {
	st, ok := ld.replState(w)
	if !ok {
		return
	}
	httpapi.WriteJSON(w, client.ReplManifest{
		Generation:   st.Gen,
		Epoch:        st.Epoch,
		WALVersion:   live.WALVersion,
		WALSize:      st.WALSize,
		WALRecords:   st.WALRecords,
		WALDataStart: live.WALDataStart,
		HasSnapshot:  st.HasSnapshot,
		SnapshotSize: st.SnapshotSize,
	})
}

func (ld *Leader) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	gen, ok := uintParam(w, r, "gen")
	if !ok {
		return
	}
	rc, size, err := ld.lv.SnapshotReader(gen)
	switch {
	case errors.Is(err, live.ErrNotDurable):
		httpapi.WriteError(w, httpapi.Errorf(http.StatusConflict, httpapi.CodeMemoryOnly,
			"this store is memory-only; it has no snapshot generations"))
		return
	case errors.Is(err, live.ErrGenerationPruned):
		httpapi.WriteError(w, httpapi.Errorf(http.StatusGone, httpapi.CodeGone,
			"generation %d was pruned by a compaction; re-bootstrap from the manifest", gen))
		return
	case errors.Is(err, live.ErrNoSnapshot):
		httpapi.WriteError(w, httpapi.Errorf(http.StatusNotFound, httpapi.CodeNotFound,
			"generation %d has no base snapshot (empty base); bootstrap from an empty graph", gen))
		return
	case err != nil:
		httpapi.WriteError(w, err)
		return
	}
	defer rc.Close()
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.FormatInt(size, 10))
	w.Header().Set(client.HeaderGeneration, strconv.FormatUint(gen, 10))
	io.Copy(w, rc) //nolint:errcheck // the client detects a cut stream by length
}

// handleWAL streams acknowledged WAL bytes of one generation from the
// requested offset. A caught-up request with ?wait long-polls on the
// store's publication watch; if nothing lands before the deadline it
// answers 204 with fresh state headers so the follower's lag gauges stay
// current. The served range always ends on a record boundary.
func (ld *Leader) handleWAL(w http.ResponseWriter, r *http.Request) {
	gen, ok := uintParam(w, r, "gen")
	if !ok {
		return
	}
	offset, ok := intParam(w, r, "offset")
	if !ok {
		return
	}
	wait, ok := waitParam(w, r)
	if !ok {
		return
	}
	deadline := time.Now().Add(wait)
	for {
		// Arm the watch before reading state: a record acknowledged
		// between the state read and the select still wakes us.
		watch := ld.lv.Watch()
		st, ok := ld.replState(w)
		if !ok {
			return
		}
		if gen != st.Gen {
			w.Header().Set(client.HeaderGeneration, strconv.FormatUint(st.Gen, 10))
			httpapi.WriteError(w, httpapi.Errorf(http.StatusGone, httpapi.CodeGone,
				"generation %d was pruned by a compaction (current is %d); re-bootstrap", gen, st.Gen))
			return
		}
		if offset < live.WALDataStart || offset > st.WALSize {
			httpapi.WriteError(w, httpapi.Errorf(http.StatusBadRequest, httpapi.CodeInvalidArgument,
				"offset %d outside the WAL range [%d, %d]", offset, live.WALDataStart, st.WALSize))
			return
		}
		if st.WALSize > offset {
			ld.serveWAL(w, gen, offset, st)
			return
		}
		remaining := time.Until(deadline)
		if remaining <= 0 {
			writeWALHeaders(w, st, st.WALSize)
			w.WriteHeader(http.StatusNoContent)
			return
		}
		timer := time.NewTimer(remaining)
		select {
		case <-watch:
		case <-timer.C:
		case <-r.Context().Done():
			timer.Stop()
			return
		}
		timer.Stop()
	}
}

// serveWAL streams [offset, st.WALSize) — record-aligned by construction.
func (ld *Leader) serveWAL(w http.ResponseWriter, gen uint64, offset int64, st live.ReplState) {
	rc, avail, err := ld.lv.WALReader(gen, offset)
	if errors.Is(err, live.ErrGenerationPruned) {
		httpapi.WriteError(w, httpapi.Errorf(http.StatusGone, httpapi.CodeGone,
			"generation %d was pruned by a compaction; re-bootstrap", gen))
		return
	}
	if err != nil {
		httpapi.WriteError(w, err)
		return
	}
	defer rc.Close()
	// The reader may see appends past the state capture; clamp the stream
	// to the captured size so the headers describe exactly what is sent.
	if avail > st.WALSize-offset {
		avail = st.WALSize - offset
	}
	writeWALHeaders(w, st, offset+avail)
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.FormatInt(avail, 10))
	io.CopyN(w, rc, avail) //nolint:errcheck // the client resumes from its last record boundary
}

// writeWALHeaders stamps the leader-state headers every /v1/repl/wal
// response carries (200 and 204 alike).
func writeWALHeaders(w http.ResponseWriter, st live.ReplState, size int64) {
	h := w.Header()
	h.Set(client.HeaderGeneration, strconv.FormatUint(st.Gen, 10))
	h.Set(client.HeaderEpoch, strconv.FormatUint(st.Epoch, 10))
	h.Set(client.HeaderWALSize, strconv.FormatInt(size, 10))
	h.Set(client.HeaderWALRecords, strconv.FormatInt(st.WALRecords, 10))
}

// uintParam parses a required non-negative integer query parameter.
func uintParam(w http.ResponseWriter, r *http.Request, name string) (uint64, bool) {
	raw := r.URL.Query().Get(name)
	v, err := strconv.ParseUint(raw, 10, 64)
	if raw == "" || err != nil {
		httpapi.WriteError(w, httpapi.Errorf(http.StatusBadRequest, httpapi.CodeInvalidArgument,
			"invalid %s %q (want a non-negative integer)", name, raw))
		return 0, false
	}
	return v, true
}

// intParam parses a required int64 query parameter.
func intParam(w http.ResponseWriter, r *http.Request, name string) (int64, bool) {
	v, ok := uintParam(w, r, name)
	return int64(v), ok
}

// waitParam parses the optional ?wait long-poll duration, capped at
// maxWALWait.
func waitParam(w http.ResponseWriter, r *http.Request) (time.Duration, bool) {
	raw := r.URL.Query().Get("wait")
	if raw == "" {
		return 0, true
	}
	d, err := time.ParseDuration(raw)
	if err != nil || d < 0 {
		httpapi.WriteError(w, httpapi.Errorf(http.StatusBadRequest, httpapi.CodeInvalidArgument,
			"invalid wait %q (want a duration like 10s)", raw))
		return 0, false
	}
	if d > maxWALWait {
		d = maxWALWait
	}
	return d, true
}
