package live

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"rdfsum/internal/core"
	"rdfsum/internal/rdf"
	"rdfsum/internal/store"
)

// writeV1WAL writes a WAL in the version-1 framing (no op byte: every
// record an add batch), followed by tail bytes (a torn record, say).
func writeV1WAL(t *testing.T, path string, batches [][]rdf.Triple, tail ...byte) {
	t.Helper()
	var buf bytes.Buffer
	buf.WriteString(walMagic)
	buf.WriteByte(walVersionV1)
	for _, batch := range batches {
		payload := binary.AppendUvarint(nil, uint64(len(batch)))
		for _, tr := range batch {
			payload = appendTerm(appendTerm(appendTerm(payload, tr.S), tr.P), tr.O)
		}
		if err := writeRecord(&buf, payload); err != nil {
			t.Fatal(err)
		}
	}
	buf.Write(tail)
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

// mustMigrate runs Migrate and checks what it reports.
func mustMigrate(t *testing.T, dir string, want bool) {
	t.Helper()
	got, err := Migrate(dir)
	if err != nil {
		t.Fatalf("Migrate: %v", err)
	}
	if got != want {
		t.Fatalf("Migrate reported %v, want %v", got, want)
	}
}

// TestLiveWALv1BackwardCompatible: a generation logged in the v1 format
// is refused by Open with an error naming the migration. Migrate
// re-frames the log as v2 once; the store then opens in the same
// generation with every logged batch, and journals deletions.
func TestLiveWALv1BackwardCompatible(t *testing.T) {
	dir := t.TempDir()
	batches := [][]rdf.Triple{mkBatch(0, 20), mkBatch(100, 15)}
	l := &Live{dir: dir}
	writeV1WAL(t, l.walPath(1), batches)
	if err := writeManifest(dir, 1); err != nil {
		t.Fatal(err)
	}

	_, err := Open(dir, Options{NoSync: true})
	if !errors.Is(err, ErrWALVersion) || !strings.Contains(err.Error(), "rdfsum migrate") {
		t.Fatalf("Open on a v1 WAL: got %v, want ErrWALVersion naming rdfsum migrate", err)
	}
	mustMigrate(t, dir, true)
	mustMigrate(t, dir, false)

	re, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	want := canonical(store.FromTriples(flatten(batches)))
	if !reflect.DeepEqual(canonical(re.Snapshot().Graph), want) {
		t.Fatal("migrated WAL replay diverges from its batches")
	}
	if st := re.Stats(); st.Gen != 1 || re.RecoveredTorn {
		t.Fatalf("migrated store opened at gen %d (torn %v), want gen 1, clean", st.Gen, re.RecoveredTorn)
	}
	// Deletions are journaled and replayable.
	dead := batches[0][:3]
	if _, err := re.DeleteBatch(dead); err != nil {
		t.Fatal(err)
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	re2, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer re2.Close()
	surviving := removeAll(flatten(batches), dead)
	if !reflect.DeepEqual(canonical(re2.Snapshot().Graph), canonical(store.FromTriples(surviving))) {
		t.Fatal("deletion on a migrated store did not survive replay")
	}
}

// TestMigrateInterrupted: a migration cut after the snapshot was upgraded
// but before the WAL was — a v2 snapshot under a v1 WAL, with a torn
// tail — is refused by Open, and a second Migrate finishes it, dropping
// the torn tail as replay would.
func TestMigrateInterrupted(t *testing.T) {
	dir := t.TempDir()
	seed := mkBatch(0, 30)
	l, err := Open(dir, Options{NoSync: true, Seed: store.FromTriples(seed)})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	batches := [][]rdf.Triple{mkBatch(100, 10), mkBatch(200, 5)}
	writeV1WAL(t, l.walPath(1), batches, 0xff, 0, 0, 0, 1, 2) // torn frame

	if _, err := Open(dir, Options{NoSync: true}); !errors.Is(err, ErrWALVersion) {
		t.Fatalf("Open with a v1 WAL: got %v, want ErrWALVersion", err)
	}
	mustMigrate(t, dir, true)
	mustMigrate(t, dir, false)
	re, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	want := canonical(store.FromTriples(append(seed, flatten(batches)...)))
	if !reflect.DeepEqual(canonical(re.Snapshot().Graph), want) {
		t.Fatal("store after a finished migration diverges from seed + batches")
	}
	if re.RecoveredTorn {
		t.Fatal("Migrate kept the torn tail")
	}
}

// TestMigrateRefusesOpenStore: Migrate takes the store's LOCK, so it
// refuses a store another writer holds, and refuses a directory that
// holds no store.
func TestMigrateRefusesOpenStore(t *testing.T) {
	if _, err := Migrate(t.TempDir()); err == nil {
		t.Fatal("Migrate accepted a directory without a store")
	}
	if runtime.GOOS == "windows" {
		t.Skip("directory locking is advisory-flock based (unix only)")
	}
	dir := t.TempDir()
	l, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := Migrate(dir); err == nil || !strings.Contains(err.Error(), "in use") {
		t.Fatalf("Migrate on an open store: got %v, want the lock refusal", err)
	}
}

// copyV1Store copies the committed v1 store fixture (testdata/v1-store:
// a v1 snapshot of mkBatch(0, 30) under a v1 WAL of mkBatch(100, 10) and
// mkBatch(200, 5), written by the last build that wrote v1) into a fresh
// directory.
func copyV1Store(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	for _, name := range []string{"CURRENT", "snapshot-1.rdfsum", "wal-1.log"} {
		b, err := os.ReadFile(filepath.Join("testdata", "v1-store", name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestMigrateV1Store: a whole v1 store is refused by Open with an error
// naming rdfsum migrate. Migrate rewrites both files byte for byte as a
// v2 store holding the same base and log writes them, and the store then
// opens with the same graph — every component in insertion order, every
// dictionary ID — and the same summaries.
func TestMigrateV1Store(t *testing.T) {
	dir := copyV1Store(t)
	_, err := Open(dir, Options{})
	if !errors.Is(err, store.ErrSnapshotVersion) || !strings.Contains(err.Error(), "rdfsum migrate") {
		t.Fatalf("Open on a v1 store: got %v, want ErrSnapshotVersion naming rdfsum migrate", err)
	}
	mustMigrate(t, dir, true)
	mustMigrate(t, dir, false)
	got, err := Open(dir, Options{Maintain: core.Kinds})
	if err != nil {
		t.Fatal(err)
	}
	defer got.Close()

	// The reference: the same base and log written as v2, then reopened.
	ref := t.TempDir()
	want, err := Open(ref, Options{NoSync: true, Seed: store.FromTriples(mkBatch(0, 30))})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range [][]rdf.Triple{mkBatch(100, 10), mkBatch(200, 5)} {
		if err := want.AddBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := want.Close(); err != nil {
		t.Fatal(err)
	}
	if want, err = Open(ref, Options{Maintain: core.Kinds}); err != nil {
		t.Fatal(err)
	}
	defer want.Close()
	gg, wg := got.Snapshot().Graph, want.Snapshot().Graph
	gg.Ensure()
	wg.Ensure()
	if !slices.Equal(gg.Data, wg.Data) || !slices.Equal(gg.Types, wg.Types) || !slices.Equal(gg.Schema, wg.Schema) ||
		!slices.Equal(gg.Decode(), wg.Decode()) {
		t.Fatal("graph differs after migration")
	}
	// Summary node numbering is not stable across opens of one store, so
	// summaries compare as triple sets.
	for _, k := range core.Kinds {
		gs, _, err := got.Summary(k, 0)
		if err != nil {
			t.Fatal(err)
		}
		ws, _, err := want.Summary(k, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(gs.Graph.CanonicalStrings(), ws.Graph.CanonicalStrings()) {
			t.Fatalf("%v summary differs after migration", k)
		}
	}
	for _, name := range []string{"snapshot-1.rdfsum", "wal-1.log"} {
		a, errA := os.ReadFile(filepath.Join(dir, name))
		b, errB := os.ReadFile(filepath.Join(ref, name))
		if errA != nil || errB != nil || !bytes.Equal(a, b) {
			t.Fatalf("migrated %s is not the file a v2 store writes for the same state", name)
		}
	}
}
