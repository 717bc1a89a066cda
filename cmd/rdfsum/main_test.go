package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rdfsum"
)

func TestLoadSaveRoundTrips(t *testing.T) {
	dir := t.TempDir()
	g := rdfsum.GenerateBSBM(10)

	// N-Triples path.
	nt := filepath.Join(dir, "g.nt")
	if err := save(nt, g); err != nil {
		t.Fatal(err)
	}
	back, err := load(nt)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumEdges() != g.NumEdges() {
		t.Errorf("nt round trip: %d != %d", back.NumEdges(), g.NumEdges())
	}

	// Snapshot path.
	snap := filepath.Join(dir, "g.snapshot")
	if err := save(snap, g); err != nil {
		t.Fatal(err)
	}
	back, err = load(snap)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumEdges() != g.NumEdges() {
		t.Errorf("snapshot round trip: %d != %d", back.NumEdges(), g.NumEdges())
	}

	// Turtle path.
	ttl := filepath.Join(dir, "g.ttl")
	doc := "@prefix ex: <http://ex.org/> .\nex:s ex:p ex:o ; a ex:C .\n"
	if err := os.WriteFile(ttl, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	tg, err := load(ttl)
	if err != nil {
		t.Fatal(err)
	}
	if tg.NumEdges() != 2 {
		t.Errorf("ttl load: %d edges, want 2", tg.NumEdges())
	}

	// Missing -in.
	if _, err := load(""); err == nil {
		t.Error("load(\"\") must fail")
	}
}

func TestShortName(t *testing.T) {
	cases := map[string]string{
		"http://x/a#frag": "frag",
		"http://x/last":   "last",
		"urn:x:y":         "y",
		"plain":           "plain",
		"http://x/":       "http://x/",
	}
	for in, want := range cases {
		if got := shortName(in); got != want {
			t.Errorf("shortName(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestCmdIngest: the ingest subcommand streams an N-Triples file into a
// live store in WAL batches; reopening recovers everything, and -compact
// folds the log into a snapshot generation.
func TestCmdIngest(t *testing.T) {
	dir := t.TempDir()
	g := rdfsum.GenerateBSBM(5)
	nt := filepath.Join(dir, "g.nt")
	if err := save(nt, g); err != nil {
		t.Fatal(err)
	}
	store := filepath.Join(dir, "store")
	if err := cmdIngest([]string{"-wal", store, "-in", nt, "-batch", "100"}); err != nil {
		t.Fatal(err)
	}
	// A second file appends on top of the first.
	if err := cmdIngest([]string{"-wal", store, "-in", nt, "-batch", "37", "-compact"}); err != nil {
		t.Fatal(err)
	}
	lv, err := rdfsum.OpenLive(store, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer lv.Close()
	if got, want := lv.Snapshot().Graph.NumEdges(), 2*g.NumEdges(); got != want {
		t.Fatalf("store holds %d triples after two ingests, want %d", got, want)
	}

	// Flag validation.
	if err := cmdIngest([]string{"-in", nt}); err == nil {
		t.Error("ingest without -wal must fail")
	}
	if err := cmdIngest([]string{"-wal", store}); err == nil {
		t.Error("ingest without -in must fail")
	}
}

// captureStdout runs fn and returns what it printed to os.Stdout.
func captureStdout(t *testing.T, fn func() error) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	ferr := fn()
	os.Stdout = stdout
	w.Close()
	out, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if ferr != nil {
		t.Fatal(ferr)
	}
	return string(out)
}

// TestCmdMigrate: `rdfsum migrate` upgrades the committed v1 store fixture
// (a v1 snapshot of 36 triples under a v1 WAL of 18) and a lone v1
// snapshot file, which then open; a second run reports them current.
func TestCmdMigrate(t *testing.T) {
	dir := t.TempDir()
	fixture := filepath.Join("..", "..", "internal", "live", "testdata", "v1-store")
	for _, name := range []string{"CURRENT", "snapshot-1.rdfsum", "wal-1.log"} {
		b, err := os.ReadFile(filepath.Join(fixture, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// A lone copy of the snapshot, outside any store.
	snap := filepath.Join(t.TempDir(), "data.snapshot")
	b, err := os.ReadFile(filepath.Join(fixture, "snapshot-1.rdfsum"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(snap, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := rdfsum.OpenLive(dir, nil); err == nil || !strings.Contains(err.Error(), "rdfsum migrate") {
		t.Fatalf("OpenLive on a v1 store: got %v, want an error naming rdfsum migrate", err)
	}
	if _, err := rdfsum.LoadSnapshot(snap); err == nil || !strings.Contains(err.Error(), "rdfsum migrate") {
		t.Fatalf("LoadSnapshot on a v1 file: got %v, want an error naming rdfsum migrate", err)
	}

	for _, path := range []string{dir, snap} {
		if out := captureStdout(t, func() error { return cmdMigrate([]string{path}) }); out != path+": upgraded\n" {
			t.Fatalf("first migrate printed %q", out)
		}
		if out := captureStdout(t, func() error { return cmdMigrate([]string{path}) }); out != path+": already current\n" {
			t.Fatalf("second migrate printed %q", out)
		}
	}
	lv, err := rdfsum.OpenLive(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer lv.Close()
	if got := lv.Snapshot().Graph.NumEdges(); got != 54 {
		t.Fatalf("migrated store holds %d triples, want 54", got)
	}
	g, err := rdfsum.LoadSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 36 {
		t.Fatalf("migrated snapshot holds %d triples, want 36", g.NumEdges())
	}

	if err := cmdMigrate(nil); err == nil {
		t.Error("migrate without a path must fail")
	}
	if err := cmdMigrate([]string{filepath.Join(dir, "missing")}); err == nil {
		t.Error("migrate of a missing path must fail")
	}
}
