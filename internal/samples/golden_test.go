package samples

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rdfsum/internal/core"
	"rdfsum/internal/ntriples"
	"rdfsum/internal/store"
)

// update rewrites the golden summary files instead of comparing:
//
//	go test ./internal/samples -run TestGoldenSummaries -update
var update = flag.Bool("update", false, "rewrite the golden summary files under testdata/golden")

// TestGoldenSummaries is the drift detector the property tests cannot be:
// small curated graphs (committed as N-Triples under testdata/) are
// summarized under all five kinds and compared line-for-line against
// committed expected summaries. The oracle tests compare two in-tree
// implementations against each other — a semantic change that lands in
// both (a representation-function tweak, a quotient-rule reordering)
// slips through them silently, but it cannot slip past a committed file.
func TestGoldenSummaries(t *testing.T) {
	inputs, err := filepath.Glob(filepath.Join("testdata", "*.nt"))
	if err != nil {
		t.Fatal(err)
	}
	if len(inputs) == 0 {
		t.Fatal("no curated graphs under testdata/ — the corpus is missing")
	}
	for _, path := range inputs {
		name := strings.TrimSuffix(filepath.Base(path), ".nt")
		t.Run(name, func(t *testing.T) {
			f, err := os.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			triples, err := ntriples.Parse(f)
			f.Close()
			if err != nil {
				t.Fatalf("parse %s: %v", path, err)
			}
			g := store.FromTriples(triples)
			for _, kind := range core.Kinds {
				s, err := core.Summarize(g, kind)
				if err != nil {
					t.Fatalf("%v: %v", kind, err)
				}
				got := strings.Join(s.Graph.CanonicalStrings(), "\n") + "\n"
				goldenPath := filepath.Join("testdata", "golden", name+"."+kind.String()+".nt")
				if *update {
					if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
						t.Fatal(err)
					}
					continue
				}
				want, err := os.ReadFile(goldenPath)
				if err != nil {
					t.Fatalf("%v: missing golden file (run `go test ./internal/samples -run TestGoldenSummaries -update`): %v", kind, err)
				}
				if got != string(want) {
					t.Errorf("%v summary of %s drifted from its golden file %s\ngot:\n%swant:\n%s",
						kind, name, goldenPath, got, want)
				}
			}
		})
	}
}

// TestGoldenInputsParse guards the committed inputs themselves: every
// curated graph must survive an N-Triples round-trip unchanged, so the
// corpus cannot silently rot.
func TestGoldenInputsParse(t *testing.T) {
	inputs, _ := filepath.Glob(filepath.Join("testdata", "*.nt"))
	for _, path := range inputs {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		triples, err := ntriples.ParseString(string(data))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if len(triples) == 0 {
			t.Fatalf("%s: empty corpus file", path)
		}
		var sb strings.Builder
		if err := ntriples.Write(&sb, triples); err != nil {
			t.Fatal(err)
		}
		again, err := ntriples.ParseString(sb.String())
		if err != nil {
			t.Fatalf("%s: round-trip: %v", path, err)
		}
		if len(again) != len(triples) {
			t.Fatalf("%s: round-trip changed triple count %d -> %d", path, len(triples), len(again))
		}
	}
}
