package store

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"testing"

	"rdfsum/internal/dict"
	"rdfsum/internal/rdf"
)

// writeSnapshotV1 serializes the graph (dictionary included) to w in the
// v1 format — the fixture writer for the v1 reader behind UpgradeFile.
func writeSnapshotV1(w io.Writer, g *Graph) error {
	g.Ensure()
	crc := crc32.NewIEEE()
	bw := bufio.NewWriter(io.MultiWriter(w, crc))
	bw.WriteString(snapshotMagic) //nolint:errcheck // bufio defers errors to Flush
	bw.WriteByte(snapshotVersion) //nolint:errcheck
	writeUvarint := func(v uint64) {
		bw.Write(binary.AppendUvarint(nil, v)) //nolint:errcheck
	}
	writeString := func(s string) {
		writeUvarint(uint64(len(s)))
		bw.WriteString(s) //nolint:errcheck
	}
	d := g.Dict()
	writeUvarint(uint64(d.Len()))
	for id := dict.ID(1); id <= d.MaxID(); id++ {
		t := d.Term(id)
		bw.WriteByte(byte(t.Kind)) //nolint:errcheck
		writeString(t.Value)
		if t.Kind == rdf.Literal {
			writeString(t.Datatype)
			writeString(t.Lang)
		}
	}
	for _, comp := range [][]Triple{g.Data, g.Types, g.Schema} {
		writeUvarint(uint64(len(comp)))
		for _, t := range comp {
			writeUvarint(uint64(t.S))
			writeUvarint(uint64(t.P))
			writeUvarint(uint64(t.O))
		}
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	// The checksum is written to w only (it covers all bytes before it).
	_, err := w.Write(binary.LittleEndian.AppendUint32(nil, crc.Sum32()))
	return err
}

// readV1 runs the v1 reader over data.
func readV1(data []byte) (*Graph, error) { return readSnapshotV1(bytes.NewReader(data)) }

// writeV1File writes data to a fresh file and returns its path.
func writeV1File(t *testing.T, data []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "v1.rdfsum")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// persistSample builds a small graph spanning all three components and
// every term kind, then returns its v1 serialization.
func persistSample(t *testing.T) (*Graph, []byte) {
	t.Helper()
	g := FromTriples([]rdf.Triple{
		rdf.NewTriple(rdf.NewIRI("http://x/a"), rdf.NewIRI("http://x/p"), rdf.NewIRI("http://x/b")),
		rdf.NewTriple(rdf.NewIRI("http://x/a"), rdf.NewIRI(rdf.RDFType), rdf.NewIRI("http://x/C")),
		rdf.NewTriple(rdf.NewIRI("http://x/C"), rdf.NewIRI(rdf.RDFSSubClassOf), rdf.NewIRI("http://x/D")),
		rdf.NewTriple(rdf.NewBlank("b0"), rdf.NewIRI("http://x/q"), rdf.NewLangLiteral("hi", "en")),
	})
	var buf bytes.Buffer
	if err := writeSnapshotV1(&buf, g); err != nil {
		t.Fatalf("writeSnapshotV1: %v", err)
	}
	return g, buf.Bytes()
}

// TestReadSnapshotRoundTrip: a v1 file upgraded by UpgradeFile reads
// back with the triples it was written from.
func TestReadSnapshotRoundTrip(t *testing.T) {
	g, data := persistSample(t)
	path := writeV1File(t, data)
	if up, err := UpgradeFile(path); err != nil || !up {
		t.Fatalf("UpgradeFile = %v, %v; want true, nil", up, err)
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatalf("LoadFile: %v", err)
	}
	want := g.CanonicalStrings()
	have := got.CanonicalStrings()
	if len(want) != len(have) {
		t.Fatalf("round trip changed triple count: %d -> %d", len(want), len(have))
	}
	for i := range want {
		if want[i] != have[i] {
			t.Fatalf("round trip changed triple %d: %q -> %q", i, want[i], have[i])
		}
	}
}

// TestReadSnapshotTruncated cuts the v1 snapshot at every prefix length and
// requires a classified error — ErrSnapshotTruncated for a clean cut
// (never a panic, never a silent partial graph). A cut can also surface as
// a checksum or corruption error when the truncated tail happens to parse
// as a shorter, self-consistent prefix; what it must never be is success.
func TestReadSnapshotTruncated(t *testing.T) {
	_, data := persistSample(t)
	for cut := 0; cut < len(data); cut++ {
		_, err := readV1(data[:cut])
		if err == nil {
			t.Fatalf("cut at %d of %d bytes: truncated snapshot read succeeded", cut, len(data))
		}
		if !errors.Is(err, ErrSnapshotTruncated) &&
			!errors.Is(err, ErrSnapshotChecksum) &&
			!errors.Is(err, ErrSnapshotCorrupt) &&
			!errors.Is(err, ErrSnapshotMagic) {
			t.Fatalf("cut at %d: unclassified error %v", cut, err)
		}
	}
	// A cut inside the magic itself is a truncation, not a foreign file.
	_, err := readV1(data[:3])
	if !errors.Is(err, ErrSnapshotTruncated) {
		t.Fatalf("cut inside magic: got %v, want ErrSnapshotTruncated", err)
	}
	// UpgradeFile classifies a torn v1 file the same way, and leaves it.
	path := writeV1File(t, data[:len(data)/2])
	if _, err := UpgradeFile(path); !errors.Is(err, ErrSnapshotTruncated) {
		t.Fatalf("UpgradeFile on a torn v1 file: got %v, want ErrSnapshotTruncated", err)
	}
	if got, _ := os.ReadFile(path); !bytes.Equal(got, data[:len(data)/2]) {
		t.Fatal("UpgradeFile changed a file it could not read")
	}
}

func TestReadSnapshotBadMagic(t *testing.T) {
	_, data := persistSample(t)
	bad := append([]byte("NOTRDF"), data[6:]...)
	if _, err := readV1(bad); !errors.Is(err, ErrSnapshotMagic) {
		t.Fatalf("bad magic: got %v, want ErrSnapshotMagic", err)
	}
	for _, garbage := range [][]byte{bad, []byte("garbage-that-is-not-a-snapshot")} {
		if _, err := UpgradeFile(writeV1File(t, garbage)); !errors.Is(err, ErrSnapshotMagic) {
			t.Fatalf("UpgradeFile on %q: got %v, want ErrSnapshotMagic", garbage[:6], err)
		}
		if _, err := ReadSnapshot(bytes.NewReader(garbage)); !errors.Is(err, ErrSnapshotMagic) {
			t.Fatalf("ReadSnapshot on %q: got %v, want ErrSnapshotMagic", garbage[:6], err)
		}
	}
}

func TestReadSnapshotBadVersion(t *testing.T) {
	_, data := persistSample(t)
	bad := append([]byte(nil), data...)
	bad[len(snapshotMagic)] = snapshotVersion + 9
	if _, err := readV1(bad); !errors.Is(err, ErrSnapshotVersion) {
		t.Fatalf("bad version: got %v, want ErrSnapshotVersion", err)
	}
	if _, err := UpgradeFile(writeV1File(t, bad)); !errors.Is(err, ErrSnapshotVersion) {
		t.Fatalf("UpgradeFile on an unknown version: got %v, want ErrSnapshotVersion", err)
	}
}

// TestReadSnapshotBitFlips flips each byte of the v1 payload in turn; every
// flip must be rejected with a classified error. Most flips survive
// parsing and die at the checksum; some corrupt the structure first — both
// classifications are correct, silence is not.
func TestReadSnapshotBitFlips(t *testing.T) {
	_, data := persistSample(t)
	for i := len(snapshotMagic) + 1; i < len(data); i++ {
		bad := append([]byte(nil), data...)
		bad[i] ^= 0x40
		_, err := readV1(bad)
		if err == nil {
			t.Fatalf("flip at byte %d: corrupt snapshot read succeeded", i)
		}
		if !errors.Is(err, ErrSnapshotChecksum) &&
			!errors.Is(err, ErrSnapshotCorrupt) &&
			!errors.Is(err, ErrSnapshotTruncated) {
			t.Fatalf("flip at byte %d: unclassified error %v", i, err)
		}
	}
}

func TestSnapshotViewIsolation(t *testing.T) {
	g := NewGraph()
	g.Add(rdf.NewTriple(rdf.NewIRI("http://x/a"), rdf.NewIRI("http://x/p"), rdf.NewIRI("http://x/b")))
	view := g.SnapshotView()
	n := view.NumEdges()
	g.Add(rdf.NewTriple(rdf.NewIRI("http://x/c"), rdf.NewIRI("http://x/p"), rdf.NewIRI("http://x/d")))
	g.Add(rdf.NewTriple(rdf.NewIRI("http://x/c"), rdf.NewIRI(rdf.RDFType), rdf.NewIRI("http://x/C")))
	if view.NumEdges() != n {
		t.Fatalf("snapshot view grew with its parent: %d -> %d edges", n, view.NumEdges())
	}
	if g.NumEdges() != n+2 {
		t.Fatalf("parent graph has %d edges, want %d", g.NumEdges(), n+2)
	}
}

func TestIndexMerged(t *testing.T) {
	g := NewGraph()
	iri := func(s string) rdf.Term { return rdf.NewIRI("http://x/" + s) }
	g.Add(rdf.NewTriple(iri("a"), iri("p"), iri("b")))
	g.Add(rdf.NewTriple(iri("b"), iri("q"), iri("c")))
	base := NewIndex(g)

	g.Add(rdf.NewTriple(iri("a"), iri("q"), iri("c")))
	g.Add(rdf.NewTriple(iri("c"), iri("p"), iri("a")))
	delta := g.All()[2:]
	merged := base.Merged(delta)
	want := NewIndex(g)

	if merged.Len() != want.Len() {
		t.Fatalf("merged index has %d triples, want %d", merged.Len(), want.Len())
	}
	if !sameIterationOrder(merged, want) {
		t.Fatal("merged index iteration diverges from rebuilt index")
	}
	// The base index must be untouched.
	if base.Len() != 2 {
		t.Fatalf("base index mutated by Merged: %d triples", base.Len())
	}
}
