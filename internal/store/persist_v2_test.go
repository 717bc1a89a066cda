package store

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rdfsum/internal/dict"
	"rdfsum/internal/rdf"
)

// v2Sample builds a graph spanning all components and term kinds and
// returns it with its v2 serialization.
func v2Sample(t *testing.T) (*Graph, []byte) {
	t.Helper()
	g := FromTriples([]rdf.Triple{
		rdf.NewTriple(rdf.NewIRI("http://x/a"), rdf.NewIRI("http://x/p"), rdf.NewIRI("http://x/b")),
		rdf.NewTriple(rdf.NewIRI("http://x/a"), rdf.NewIRI(rdf.RDFType), rdf.NewIRI("http://x/C")),
		rdf.NewTriple(rdf.NewIRI("http://x/C"), rdf.NewIRI(rdf.RDFSSubClassOf), rdf.NewIRI("http://x/D")),
		rdf.NewTriple(rdf.NewBlank("b0"), rdf.NewIRI("http://x/q"), rdf.NewLangLiteral("hi", "en")),
		rdf.NewTriple(rdf.NewIRI("http://x/a"), rdf.NewIRI("http://x/q"), rdf.NewTypedLiteral("3", "http://www.w3.org/2001/XMLSchema#int")),
	})
	var buf bytes.Buffer
	if err := WriteSnapshotV2(&buf, g); err != nil {
		t.Fatalf("WriteSnapshotV2: %v", err)
	}
	return g, buf.Bytes()
}

// v2RandomGraph builds a graph with duplicate-free but skewed random
// triples, enough to span multiple column blocks and dictionary pages.
func v2RandomGraph(t *testing.T, seed uint64, n int) *Graph {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed, 7))
	g := NewGraph()
	for i := 0; i < n; i++ {
		s := rdf.NewIRI(fmt.Sprintf("http://x/n%d", rng.IntN(n/2+1)))
		p := rdf.NewIRI(fmt.Sprintf("http://x/p%d", rng.IntN(8)))
		var o rdf.Term
		switch rng.IntN(4) {
		case 0:
			o = rdf.NewLiteral(fmt.Sprintf("lit-%d", rng.IntN(n)))
		case 1:
			o = rdf.NewLangLiteral(fmt.Sprintf("v%d", rng.IntN(n)), "en")
		default:
			o = rdf.NewIRI(fmt.Sprintf("http://x/n%d", rng.IntN(n/2+1)))
		}
		g.Add(rdf.Triple{S: s, P: p, O: o})
		if rng.IntN(10) == 0 {
			g.Add(rdf.Triple{S: s, P: rdf.NewIRI(rdf.RDFType), O: rdf.NewIRI(fmt.Sprintf("http://x/C%d", rng.IntN(5)))})
		}
	}
	g.Add(rdf.NewTriple(rdf.NewIRI("http://x/C0"), rdf.NewIRI(rdf.RDFSSubClassOf), rdf.NewIRI("http://x/C1")))
	return g
}

// identicalGraphs requires bit-identity: same dictionary (every ID maps
// to the same term) and same component slices in the same order.
func identicalGraphs(t *testing.T, want, got *Graph) {
	t.Helper()
	want.Ensure()
	got.Ensure()
	if w, g := want.Dict().Len(), got.Dict().Len(); w != g {
		t.Fatalf("dict size changed: %d -> %d", w, g)
	}
	for id := 1; id <= want.Dict().Len(); id++ {
		w := want.Dict().Term(dict.ID(id))
		g := got.Dict().Term(dict.ID(id))
		if w != g {
			t.Fatalf("dict id %d changed: %v -> %v", id, w, g)
		}
	}
	comps := [][2][]Triple{{want.Data, got.Data}, {want.Types, got.Types}, {want.Schema, got.Schema}}
	for ci, c := range comps {
		if len(c[0]) != len(c[1]) {
			t.Fatalf("component %d size changed: %d -> %d", ci, len(c[0]), len(c[1]))
		}
		for i := range c[0] {
			if c[0][i] != c[1][i] {
				t.Fatalf("component %d triple %d changed: %v -> %v", ci, i, c[0][i], c[1][i])
			}
		}
	}
}

func TestSnapshotV2RoundTripStream(t *testing.T) {
	g, data := v2Sample(t)
	got, err := ReadSnapshot(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("ReadSnapshot(v2): %v", err)
	}
	identicalGraphs(t, g, got)
}

func TestSnapshotV2RoundTripMapped(t *testing.T) {
	for _, n := range []int{3, 50, 3000} { // spans 1 and many column blocks
		g := v2RandomGraph(t, uint64(n), n)
		path := filepath.Join(t.TempDir(), "g.rdfsum")
		if err := SaveFile(path, g); err != nil {
			t.Fatalf("SaveFile: %v", err)
		}
		for _, verify := range []bool{false, true} {
			got, sf, err := OpenGraphFile(path, verify)
			if err != nil {
				t.Fatalf("OpenGraphFile(verify=%v): %v", verify, err)
			}
			if sf == nil {
				t.Fatal("OpenGraphFile on v2 returned no SnapshotFile")
			}
			if got.Base() == nil {
				t.Fatal("v2-opened graph should be lazily backed before Ensure")
			}
			nd, nt, ns := got.ComponentSizes()
			if nd != len(g.Data) || nt != len(g.Types) || ns != len(g.Schema) {
				t.Fatalf("header counts (%d,%d,%d) != (%d,%d,%d)",
					nd, nt, ns, len(g.Data), len(g.Types), len(g.Schema))
			}
			identicalGraphs(t, g, got)
			if got.Base() != nil {
				t.Fatal("Ensure left the base attached")
			}
			if err := sf.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
		}
	}
}

// TestSnapshotV2IndexFromBase: an index served zero-copy from the mapped
// snapshot answers every pattern exactly like one built from the decoded
// graph — with and without a mutation tail.
func TestSnapshotV2IndexFromBase(t *testing.T) {
	g := v2RandomGraph(t, 11, 2000)
	path := filepath.Join(t.TempDir(), "g.rdfsum")
	if err := SaveFile(path, g); err != nil {
		t.Fatalf("SaveFile: %v", err)
	}
	sf, err := OpenSnapshotFile(path, false)
	if err != nil {
		t.Fatalf("OpenSnapshotFile: %v", err)
	}
	defer sf.Close()

	g.Ensure()
	want := NewIndex(g)
	tail := []Triple{g.Data[0], g.Types[0], {S: 1, P: 2, O: 1}}
	for _, tc := range []struct {
		name string
		tail []Triple
	}{{"no-tail", nil}, {"tail", tail}} {
		got := NewIndexFromBase(sf.Runs(), tc.tail, IndexOptions{})
		ref := want
		if len(tc.tail) > 0 {
			ref = want.Merged(tc.tail)
		}
		if got.Len() != ref.Len() {
			t.Fatalf("%s: index length %d, want %d", tc.name, got.Len(), ref.Len())
		}
		if !sameIterationOrder(got, ref) {
			t.Fatalf("%s: mapped-base index iteration diverges from in-memory index", tc.name)
		}
	}
}

// TestSnapshotVersionNegotiation: the serving readers know one format.
// ReadSnapshot and OpenGraphFile refuse a v1 file, short or whole, with
// ErrSnapshotVersion naming the migration; UpgradeFile converts it once,
// and the result reopens bit-identically.
func TestSnapshotVersionNegotiation(t *testing.T) {
	g, v2data := v2Sample(t)
	var v1buf bytes.Buffer
	if err := writeSnapshotV1(&v1buf, g); err != nil {
		t.Fatalf("writeSnapshotV1: %v", err)
	}
	v1data := v1buf.Bytes()
	future := append([]byte{}, v2data...)
	future[len(snapshotMagic)] = 9
	cases := map[string][]byte{
		"v1":       v1data,
		"short-v1": v1data[:v2HeaderSize/2], // shorter than a v2 header
		"future":   future,
	}
	for name, data := range cases {
		if _, err := ReadSnapshot(bytes.NewReader(data)); !errors.Is(err, ErrSnapshotVersion) {
			t.Fatalf("ReadSnapshot(%s): got %v, want ErrSnapshotVersion", name, err)
		}
		path := filepath.Join(t.TempDir(), name+".rdfsum")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, _, err := OpenGraphFile(path, false)
		if !errors.Is(err, ErrSnapshotVersion) {
			t.Fatalf("OpenGraphFile(%s): got %v, want ErrSnapshotVersion", name, err)
		}
		if !strings.Contains(err.Error(), "rdfsum migrate") {
			t.Fatalf("version error %q does not name rdfsum migrate", err)
		}
		if _, err := InspectSnapshot(path); !errors.Is(err, ErrSnapshotVersion) {
			t.Fatalf("InspectSnapshot(%s): got %v, want ErrSnapshotVersion", name, err)
		}
	}

	path := filepath.Join(t.TempDir(), "g.rdfsum")
	if err := os.WriteFile(path, v1data, 0o644); err != nil {
		t.Fatal(err)
	}
	if up, err := UpgradeFile(path); err != nil || !up {
		t.Fatalf("UpgradeFile(v1) = %v, %v; want true, nil", up, err)
	}
	upgraded, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(upgraded, v2data) {
		t.Fatal("upgraded file differs from the v2 serialization of the same graph")
	}
	if up, err := UpgradeFile(path); err != nil || up {
		t.Fatalf("UpgradeFile(v2) = %v, %v; want false, nil", up, err)
	}
	if again, _ := os.ReadFile(path); !bytes.Equal(again, upgraded) {
		t.Fatal("UpgradeFile rewrote a current file")
	}
	got, sf, err := OpenGraphFile(path, true)
	if err != nil {
		t.Fatalf("OpenGraphFile(upgraded): %v", err)
	}
	defer sf.Close()
	identicalGraphs(t, g, got)
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("UpgradeFile left its temporary behind: %v", err)
	}
}

// TestSnapshotV2CompactUpgrades: UpgradeFile rewrites a v1 file as the
// v2 container, which inspects as v2 and loads the same graph.
func TestSnapshotV2CompactUpgrades(t *testing.T) {
	g := v2RandomGraph(t, 5, 400)
	var v1buf bytes.Buffer
	if err := writeSnapshotV1(&v1buf, g); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "g.rdfsum")
	if err := os.WriteFile(path, v1buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFile(path); !errors.Is(err, ErrSnapshotVersion) {
		t.Fatalf("LoadFile(v1): got %v, want ErrSnapshotVersion", err)
	}
	if up, err := UpgradeFile(path); err != nil || !up {
		t.Fatalf("UpgradeFile = %v, %v; want true, nil", up, err)
	}
	info, err := InspectSnapshot(path)
	if err != nil {
		t.Fatalf("InspectSnapshot: %v", err)
	}
	if info.Version != 2 {
		t.Fatalf("rewritten snapshot is v%d, want v2", info.Version)
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatalf("LoadFile(v2): %v", err)
	}
	identicalGraphs(t, g, got)
}

// coveredRanges returns the byte ranges of a v2 file that some CRC
// protects: header, TOC, and every section payload. Alignment padding is
// dead bytes and deliberately unprotected.
func coveredRanges(t *testing.T, data []byte) [][2]int {
	t.Helper()
	c, err := parseContainer(data, true)
	if err != nil {
		t.Fatalf("parseContainer: %v", err)
	}
	tocOff := int(leU64(data[48:56]))
	ranges := [][2]int{
		{0, v2HeaderSize},
		{tocOff, tocOff + len(c.secOrder)*v2TocEntrySize},
	}
	for _, s := range c.secOrder {
		ranges = append(ranges, [2]int{int(s.off), int(s.off) + len(s.raw)})
	}
	return ranges
}

func leU64(b []byte) uint64 {
	var v uint64
	for i := 7; i >= 0; i-- {
		v = v<<8 | uint64(b[i])
	}
	return v
}

// TestSnapshotV2BitFlipsEager flips every CRC-covered byte and demands a
// classified error from the eager (fully verifying) read path.
func TestSnapshotV2BitFlipsEager(t *testing.T) {
	_, data := v2Sample(t)
	for _, r := range coveredRanges(t, data) {
		for i := r[0]; i < r[1]; i++ {
			bad := append([]byte(nil), data...)
			bad[i] ^= 0x40
			_, err := ReadSnapshot(bytes.NewReader(bad))
			if err == nil {
				t.Fatalf("flip at byte %d: corrupt v2 snapshot read succeeded", i)
			}
			if !errors.Is(err, ErrSnapshotChecksum) &&
				!errors.Is(err, ErrSnapshotCorrupt) &&
				!errors.Is(err, ErrSnapshotTruncated) &&
				!errors.Is(err, ErrSnapshotVersion) &&
				!errors.Is(err, ErrSnapshotMagic) {
				t.Fatalf("flip at byte %d: unclassified error %v", i, err)
			}
		}
	}
}

// TestSnapshotV2BitFlipsLazy corrupts one payload byte of each section,
// opens without verification (which must succeed: nothing was read yet),
// and requires the first touch of the damaged section to surface
// ErrSnapshotChecksum.
func TestSnapshotV2BitFlipsLazy(t *testing.T) {
	g, data := v2Sample(t)
	_ = g
	c, err := parseContainer(data, true)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for _, s := range c.secOrder {
		id := s.id
		if len(s.raw) == 0 {
			continue
		}
		bad := append([]byte(nil), data...)
		bad[int(s.off)+len(s.raw)/2] ^= 0x40
		path := filepath.Join(dir, fmt.Sprintf("bad-%d.rdfsum", id))
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}

		// Eager open refuses outright.
		if _, err := OpenSnapshotFile(path, true); !errors.Is(err, ErrSnapshotChecksum) {
			t.Fatalf("section %s: eager open got %v, want ErrSnapshotChecksum", sectionName(id), err)
		}

		// Lazy open succeeds; full materialization then touches every
		// section and must panic with the classified checksum error.
		sf, err := OpenSnapshotFile(path, false)
		if err != nil {
			t.Fatalf("section %s: lazy open: %v", sectionName(id), err)
		}
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("section %s: corrupt section served without detection", sectionName(id))
				}
				err, ok := r.(error)
				if !ok || !errors.Is(err, ErrSnapshotChecksum) {
					t.Fatalf("section %s: panic %v, want ErrSnapshotChecksum", sectionName(id), r)
				}
			}()
			touchEverything(sf)
		}()
		sf.Close()
	}
}

// touchEverything forces a read through every section: dictionary pages,
// directory and sorted permutation, the three components, the three
// sorted columns, and the vocab table.
func touchEverything(sf *SnapshotFile) {
	sf.Vocab()
	md := sf.MappedDict()
	for id := 1; id <= md.Len(); id++ {
		term := md.Term(dict.ID(id))
		md.Lookup(term)
	}
	sf.Components()
	for ord := Order(0); ord < NumOrders; ord++ {
		col := sf.Runs().col(ord)
		cur := col.Cursor(0, col.Len())
		for cur.Valid() {
			cur.Next()
		}
	}
}

func TestInspectSnapshotV2(t *testing.T) {
	g, _ := v2Sample(t)
	path := filepath.Join(t.TempDir(), "g.rdfsum")
	if err := SaveFile(path, g); err != nil {
		t.Fatal(err)
	}
	info, err := InspectSnapshot(path)
	if err != nil {
		t.Fatalf("InspectSnapshot: %v", err)
	}
	if info.Version != 2 || info.Kind != "snapshot" {
		t.Fatalf("got v%d %q, want v2 snapshot", info.Version, info.Kind)
	}
	if info.PageSize != v2PageSize {
		t.Fatalf("page size %d, want %d", info.PageSize, v2PageSize)
	}
	if len(info.Sections) != 10 {
		t.Fatalf("%d sections, want 10", len(info.Sections))
	}
	if info.NTerms != uint64(g.Dict().Len()) ||
		info.NData != uint64(len(g.Data)) ||
		info.NTypes != uint64(len(g.Types)) ||
		info.NSchema != uint64(len(g.Schema)) {
		t.Fatalf("header counts diverge from graph: %+v", info)
	}
	for _, s := range info.Sections {
		if s.Off%v2PageSize != 0 {
			t.Fatalf("section %s not page aligned: offset %d", s.Name, s.Off)
		}
	}
}
