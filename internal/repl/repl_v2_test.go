package repl_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"rdfsum/client"
	"rdfsum/internal/core"
	"rdfsum/internal/live"
	"rdfsum/internal/repl"
	"rdfsum/internal/store"
)

// TestFollowerBootstrapFromV2Snapshot: a follower joining after the
// leader compacted bootstraps by streaming the v2 container snapshot and
// converges bit-identically — the e2e path for the current format.
func TestFollowerBootstrapFromV2Snapshot(t *testing.T) {
	dir := t.TempDir()
	lv, err := live.Open(dir, live.Options{Maintain: []core.Kind{core.Weak}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lv.Close() })
	if err := lv.AddBatch(mkBatch(0, 80)); err != nil {
		t.Fatal(err)
	}
	if err := lv.Compact(); err != nil {
		t.Fatal(err)
	}
	// The snapshot the follower will stream really is the v2 container.
	info, err := store.InspectSnapshot(filepath.Join(dir, "snapshot-2.rdfsum"))
	if err != nil {
		t.Fatal(err)
	}
	if info.Version != 2 {
		t.Fatalf("leader snapshot is v%d, want v2", info.Version)
	}
	// Post-snapshot WAL tail the bootstrap must replay on top.
	if err := lv.AddBatch(mkBatch(80, 20)); err != nil {
		t.Fatal(err)
	}

	mux := http.NewServeMux()
	repl.NewLeader(lv).Mount(mux, "/v1/repl")
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)

	f := startFollower(t, ts.URL)
	waitConverged(t, lv, f)
	assertIdentical(t, lv, f)
	if st := f.Status(); st.Bootstraps != 1 {
		t.Errorf("bootstraps = %d, want 1", st.Bootstraps)
	}
}

// TestFollowerBootstrapFromMigratedV1Store: a store written in the v1
// formats (the committed fixture internal/live/testdata/v1-store), once
// migrated, leads a follower that bootstraps and converges on it.
func TestFollowerBootstrapFromMigratedV1Store(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"CURRENT", "snapshot-1.rdfsum", "wal-1.log"} {
		b, err := os.ReadFile(filepath.Join("..", "live", "testdata", "v1-store", name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if up, err := live.Migrate(dir); err != nil || !up {
		t.Fatalf("Migrate = %v, %v; want true, nil", up, err)
	}
	lv, err := live.Open(dir, live.Options{Maintain: []core.Kind{core.Weak}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lv.Close() })

	mux := http.NewServeMux()
	repl.NewLeader(lv).Mount(mux, "/v1/repl")
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)

	f := startFollower(t, ts.URL)
	waitConverged(t, lv, f)
	assertIdentical(t, lv, f)
	if n := lv.Snapshot().Graph.NumEdges(); n == 0 {
		t.Fatal("migrated store is empty")
	}
}

// fakeLeader serves one manifest and one snapshot body, counting the
// snapshot downloads.
func fakeLeader(t *testing.T, m client.ReplManifest, snap []byte) (url string, downloads *atomic.Int64) {
	t.Helper()
	downloads = new(atomic.Int64)
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/repl/manifest", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(m) //nolint:errcheck
	})
	mux.HandleFunc("GET /v1/repl/snapshot", func(w http.ResponseWriter, r *http.Request) {
		downloads.Add(1)
		w.Header().Set(client.HeaderGeneration, "1")
		w.Write(snap) //nolint:errcheck
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts.URL, downloads
}

// firstBootstrapError starts a follower of url and returns the first
// error its status reports, checking the replica adopted nothing.
func firstBootstrapError(t *testing.T, url string) string {
	t.Helper()
	f, err := repl.NewFollower(url, repl.FollowerOptions{
		RetryMin: 5 * time.Millisecond,
		RetryMax: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	f.Start()
	defer f.Close()

	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		st := f.Status()
		if st.LastError != "" {
			if st.Bootstraps != 0 {
				t.Fatalf("follower claims %d successful bootstraps from an unreadable leader", st.Bootstraps)
			}
			// The replica never swaps in a bogus store.
			if lv, _ := f.Live(); lv.Snapshot().Graph.NumEdges() != 0 {
				t.Fatal("follower adopted triples from an unreadable leader")
			}
			return st.LastError
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("follower never surfaced a bootstrap error")
	return ""
}

// TestFollowerRejectsUnknownSnapshotVersion: a leader serving a snapshot
// format this build does not read (the situation of a stale follower
// binary bootstrapping from an upgraded leader) produces a clear
// versioned error in the follower's status — never a garbage graph.
func TestFollowerRejectsUnknownSnapshotVersion(t *testing.T) {
	// A structurally plausible stream with an unknown version byte.
	g := store.FromTriples(mkBatch(0, 5))
	var snap bytes.Buffer
	if err := store.WriteSnapshotV2(&snap, g); err != nil {
		t.Fatal(err)
	}
	raw := snap.Bytes()
	raw[6] = 9 // future format version

	url, _ := fakeLeader(t, client.ReplManifest{
		Generation:   1,
		Epoch:        1,
		WALVersion:   live.WALVersion,
		WALDataStart: live.WALDataStart,
		HasSnapshot:  true,
		SnapshotSize: int64(len(raw)),
	}, raw)
	if msg := firstBootstrapError(t, url); !strings.Contains(msg, "unsupported snapshot version") {
		t.Fatalf("bootstrap error %q does not name the version problem", msg)
	}
}

// TestFollowerRejectsUnknownWALVersion: the follower reads the leader's
// WAL framing from the manifest and refuses any but its own — another
// version, or records starting at another offset (including an omitted
// wal_data_start) — with ErrWALVersion, before downloading the snapshot.
func TestFollowerRejectsUnknownWALVersion(t *testing.T) {
	var snap bytes.Buffer
	if err := store.WriteSnapshotV2(&snap, store.FromTriples(mkBatch(0, 5))); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		version byte
		start   int64
	}{
		{"v1", 1, live.WALDataStart},
		{"future", live.WALVersion + 1, live.WALDataStart},
		{"omitted-data-start", live.WALVersion, 0},
		{"other-data-start", live.WALVersion, live.WALDataStart + 6},
	} {
		t.Run(tc.name, func(t *testing.T) {
			url, downloads := fakeLeader(t, client.ReplManifest{
				Generation:   1,
				Epoch:        1,
				WALVersion:   tc.version,
				WALDataStart: tc.start,
				HasSnapshot:  true,
				SnapshotSize: int64(snap.Len()),
			}, snap.Bytes())
			if msg := firstBootstrapError(t, url); !strings.Contains(msg, live.ErrWALVersion.Error()) {
				t.Fatalf("bootstrap error %q does not name the WAL version problem", msg)
			}
			if n := downloads.Load(); n != 0 {
				t.Fatalf("follower downloaded the snapshot %d times from a leader it cannot tail", n)
			}
		})
	}
}
