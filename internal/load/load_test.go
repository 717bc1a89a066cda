package load

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"rdfsum/internal/bsbm"
	"rdfsum/internal/dict"
	"rdfsum/internal/lubm"
	"rdfsum/internal/ntriples"
	"rdfsum/internal/rdf"
	"rdfsum/internal/store"
)

// render serializes g as N-Triples text.
func render(t *testing.T, g *store.Graph) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := ntriples.Write(&buf, g.Decode()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// assertIdentical checks that got is bit-identical to want: same
// dictionary contents in the same ID order, and the same triple slices in
// the same component order.
func assertIdentical(t *testing.T, want, got *store.Graph) {
	t.Helper()
	wd, gd := want.Dict(), got.Dict()
	if wd.Len() != gd.Len() {
		t.Fatalf("dictionary size: sequential %d terms, parallel %d", wd.Len(), gd.Len())
	}
	for id := 1; id <= wd.Len(); id++ {
		w, g := wd.Term(dict.ID(id)), gd.Term(dict.ID(id))
		if w != g {
			t.Fatalf("dictionary id %d: sequential %v, parallel %v", id, w, g)
		}
	}
	assertSameTriples(t, "Data", want.Data, got.Data)
	assertSameTriples(t, "Types", want.Types, got.Types)
	assertSameTriples(t, "Schema", want.Schema, got.Schema)
}

func assertSameTriples(t *testing.T, name string, want, got []store.Triple) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: sequential %d triples, parallel %d", name, len(want), len(got))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s[%d]: sequential %v, parallel %v", name, i, want[i], got[i])
		}
	}
}

// TestParallelMatchesSequentialGenerated cross-checks the parallel loader
// against the sequential one on the two benchmark generators, with small
// slabs so the input spans many slabs per worker.
func TestParallelMatchesSequentialGenerated(t *testing.T) {
	graphs := map[string]*store.Graph{
		"bsbm": bsbm.GenerateGraph(bsbm.DefaultConfig(100)), // ≈6k triples
		"lubm": lubm.GenerateGraph(lubm.DefaultConfig(2)),   // ≈7k triples
	}
	for name, src := range graphs {
		t.Run(name, func(t *testing.T) {
			data := render(t, src)
			seq, err := NTriples(bytes.NewReader(data), Options{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{2, 4, 8} {
				par, err := NTriples(bytes.NewReader(data), Options{Workers: workers, SlabBytes: 4 * 1024})
				if err != nil {
					t.Fatal(err)
				}
				assertIdentical(t, seq, par)
			}
		})
	}
}

// TestParallelMatchesSequentialHandwritten exercises the syntax corners:
// comments, blank lines, CRLF endings, escapes, blank nodes, typed and
// language-tagged literals, schema and type triples, no trailing newline.
func TestParallelMatchesSequentialHandwritten(t *testing.T) {
	doc := strings.Join([]string{
		"# leading comment",
		"",
		"<http://example.org/a> <http://example.org/p> <http://example.org/b> .",
		"<http://example.org/a> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://example.org/C> .\r",
		"_:b1 <http://example.org/p> \"lit with \\\"quotes\\\" and \\n newline\" .",
		"   ",
		"<http://example.org/C> <http://www.w3.org/2000/01/rdf-schema#subClassOf> <http://example.org/D> .",
		"<http://example.org/p> <http://www.w3.org/2000/01/rdf-schema#domain> <http://example.org/C> . # trailing",
		"<http://example.org/a> <http://example.org/q> \"42\"^^<http://www.w3.org/2001/XMLSchema#integer> .",
		"<http://example.org/a> <http://example.org/q> \"chat\"@fr .",
		"<http://example.org/z> <http://example.org/p> _:b1 .", // no trailing newline
	}, "\n")
	seq, err := NTriples(strings.NewReader(doc), Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if seq.NumEdges() != 8 {
		t.Fatalf("expected 8 triples, got %d", seq.NumEdges())
	}
	// Slab sizes chosen to cut the document at many different boundaries.
	for _, slab := range []int{1, 7, 64, 100, 1 << 20} {
		par, err := NTriples(strings.NewReader(doc), Options{Workers: 4, SlabBytes: slab})
		if err != nil {
			t.Fatalf("slab=%d: %v", slab, err)
		}
		assertIdentical(t, seq, par)
	}
}

// TestParallelEmptyAndCommentOnly loads degenerate documents.
func TestParallelEmptyAndCommentOnly(t *testing.T) {
	for _, doc := range []string{"", "\n\n\n", "# only a comment\n", "# c1\n\n# c2"} {
		g, err := NTriples(strings.NewReader(doc), Options{Workers: 4, SlabBytes: 2})
		if err != nil {
			t.Fatalf("%q: %v", doc, err)
		}
		if g.NumEdges() != 0 {
			t.Fatalf("%q: expected empty graph, got %d triples", doc, g.NumEdges())
		}
	}
}

// TestParallelErrorLineNumbers places a malformed line at a known global
// position deep into the input and checks it is reported exactly, from
// whatever slab it lands in.
func TestParallelErrorLineNumbers(t *testing.T) {
	var b strings.Builder
	const badLine = 917
	for i := 1; i <= 1200; i++ {
		if i == badLine {
			b.WriteString("<http://example.org/broken> <http://example.org/p> .\n") // missing object
			continue
		}
		fmt.Fprintf(&b, "<http://example.org/s%d> <http://example.org/p> <http://example.org/o%d> .\n", i, i)
	}
	doc := b.String()

	// The sequential path reports line 917; every parallel configuration
	// must agree.
	for _, opts := range []Options{
		{Workers: 1},
		{Workers: 2, SlabBytes: 512},
		{Workers: 4, SlabBytes: 1024},
		{Workers: 8, SlabBytes: 128},
	} {
		_, err := NTriples(strings.NewReader(doc), opts)
		var pe *ntriples.ParseError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: expected *ParseError, got %v", opts.Workers, err)
		}
		if pe.Line != badLine {
			t.Fatalf("workers=%d slab=%d: expected error at line %d, got line %d (%s)",
				opts.Workers, opts.SlabBytes, badLine, pe.Line, pe.Msg)
		}
	}
}

// TestParallelReportsEarliestDetectedError: with several bad lines, the
// reported error must point at one of them (the earliest detected; which
// one depends on slab scheduling, but it is never a well-formed line).
func TestParallelReportsEarliestDetectedError(t *testing.T) {
	var b strings.Builder
	bad := map[int]bool{200: true, 350: true}
	for i := 1; i <= 400; i++ {
		if bad[i] {
			b.WriteString("not a triple\n")
			continue
		}
		fmt.Fprintf(&b, "<http://example.org/s%d> <http://example.org/p> <http://example.org/o%d> .\n", i, i)
	}
	_, err := NTriples(strings.NewReader(b.String()), Options{Workers: 2, SlabBytes: 256})
	var pe *ntriples.ParseError
	if !errors.As(err, &pe) {
		t.Fatalf("expected *ParseError, got %v", err)
	}
	if !bad[pe.Line] {
		t.Fatalf("reported line %d is not one of the malformed lines", pe.Line)
	}
}

// TestParallelEarlierErrorBeatsOverlongFinalLine: when the final chunk
// holds both a malformed triple and an overlong unterminated last line,
// the malformed line is reported first — matching sequential order.
func TestParallelEarlierErrorBeatsOverlongFinalLine(t *testing.T) {
	doc := "<http://e.org/a> <http://e.org/p> <http://e.org/b> .\n" +
		"not a triple\n" +
		strings.Repeat("y", ntriples.MaxLineBytes+2)
	for _, workers := range []int{1, 4} {
		_, err := NTriples(strings.NewReader(doc), Options{Workers: workers, SlabBytes: 64 * 1024})
		var pe *ntriples.ParseError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: expected *ParseError, got %v", workers, err)
		}
		if pe.Line != 2 {
			t.Fatalf("workers=%d: expected the malformed line 2, got line %d (%s)", workers, pe.Line, pe.Msg)
		}
	}
}

// TestNTriplesFile exercises the file-based entry point end to end.
func TestNTriplesFile(t *testing.T) {
	src := bsbm.GenerateGraph(bsbm.DefaultConfig(20))
	path := filepath.Join(t.TempDir(), "data.nt")
	if err := os.WriteFile(path, render(t, src), 0o644); err != nil {
		t.Fatal(err)
	}
	seq, err := NTriplesFile(path, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := NTriplesFile(path, Options{Workers: 4, SlabBytes: 8 * 1024})
	if err != nil {
		t.Fatal(err)
	}
	assertIdentical(t, seq, par)
	if seq.NumEdges() != src.NumEdges() {
		t.Fatalf("loaded %d triples, generated %d", seq.NumEdges(), src.NumEdges())
	}
}

// TestDefaultOptionsUseAllCPUs just checks the zero Options load a file
// successfully through the parallel path.
func TestDefaultOptions(t *testing.T) {
	doc := "<http://example.org/a> <http://example.org/p> <http://example.org/b> .\n"
	g, err := NTriples(strings.NewReader(doc), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 1 {
		t.Fatalf("expected 1 triple, got %d", g.NumEdges())
	}
}

// TestParallelLoadKeepsNoSlab: ParseSlab hands out terms that alias the
// slab, and the dictionary copies a term only when it first inserts it.
// So after a parallel load no dictionary term's string data may lie
// inside a slab buffer: one such term would keep its whole slab alive.
func TestParallelLoadKeepsNoSlab(t *testing.T) {
	data := render(t, lubm.GenerateGraph(lubm.DefaultConfig(2)))
	data = append(data, "_:b1 <http://e.org/p> \"v\"@en .\n"+
		"_:b1 <http://e.org/p> \"7\"^^<http://e.org/t> .\n"+
		"<http://e.org/\\u00e9> <http://e.org/p> \"esc\\n\" .\n"...)
	var slabs []ntriples.Slab
	if err := ntriples.SplitSlabs(bytes.NewReader(data), 4*1024, func(s ntriples.Slab) error {
		slabs = append(slabs, s)
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	// Parse the slabs on two workers, as the loader does.
	sd := dict.NewSharded()
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < len(slabs); i += 2 {
				if _, err := parseSlab(sd, slabs[i]); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()
	g := store.NewGraph()
	sd.Finalize(g.Dict())

	inSlab := func(s string) bool {
		if s == "" {
			return false
		}
		p := uintptr(unsafe.Pointer(unsafe.StringData(s)))
		for _, sl := range slabs {
			lo := uintptr(unsafe.Pointer(unsafe.SliceData(sl.Data)))
			if p >= lo && p < lo+uintptr(cap(sl.Data)) {
				return true
			}
		}
		return false
	}
	d := g.Dict()
	if d.Len() < 1000 {
		t.Fatalf("only %d terms loaded", d.Len())
	}
	for id := dict.ID(1); id <= d.MaxID(); id++ {
		tm := d.Term(id)
		if inSlab(tm.Value) || inSlab(tm.Datatype) || inSlab(tm.Lang) {
			t.Fatalf("dictionary term %d (%v) points into a slab buffer", id, tm)
		}
	}
	runtime.KeepAlive(slabs)
}

// TestLoadRejectsInvalidUTF8: a term that is not UTF-8 fails every load
// path with rdf.ErrInvalidUTF8. These two IRIs used to load as one node.
func TestLoadRejectsInvalidUTF8(t *testing.T) {
	docs := map[Format]string{
		FormatNTriples: "<http://ex/caf\xe9> <http://ex/p> <http://ex/o> .\n" +
			"<http://ex/caf\xe8> <http://ex/p> <http://ex/o> .\n",
		FormatTurtle: "@prefix ex: <http://ex/> .\n<http://ex/caf\xe9> ex:p ex:o .\n<http://ex/caf\xe8> ex:p ex:o .\n",
	}
	for format, doc := range docs {
		for _, workers := range []int{1, 2} {
			_, err := Reader(strings.NewReader(doc), Options{Workers: workers, Format: format})
			if !errors.Is(err, rdf.ErrInvalidUTF8) {
				t.Errorf("%v, workers=%d: got %v, want rdf.ErrInvalidUTF8", format, workers, err)
			}
		}
	}
}
