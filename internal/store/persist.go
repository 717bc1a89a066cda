package store

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"rdfsum/internal/dict"
	"rdfsum/internal/rdf"
)

// Binary snapshot format v1, the streamed predecessor of the v2 container
// (container.go). Only UpgradeFile reads it, to rewrite it as v2:
//
//	magic   "RDFSUM" + format version byte
//	uvarint number of dictionary terms, then for each term:
//	        kind byte, then length-prefixed value [, datatype, lang for literals]
//	uvarint data triple count, then 3 uvarint IDs per triple
//	uvarint type triple count, same encoding
//	uvarint schema triple count, same encoding
//	uint32  little-endian CRC-32 (IEEE) of everything preceding it
const (
	snapshotMagic   = "RDFSUM"
	snapshotVersion = 1
)

// Snapshot read failures are classified into distinct sentinel errors so a
// serving process can tell "wrong file" from "torn write" from "bit rot"
// in its logs and pick the right reaction (reject the path vs. restore a
// backup). Every error out of ReadSnapshot wraps exactly one of these;
// match with errors.Is.
var (
	// ErrSnapshotMagic: the file does not start with the snapshot magic —
	// not a snapshot at all.
	ErrSnapshotMagic = errors.New("store: not a snapshot file (bad magic)")
	// ErrSnapshotVersion: a snapshot, but a format version this build does
	// not read.
	ErrSnapshotVersion = errors.New("store: unsupported snapshot version")
	// ErrSnapshotTruncated: the file ended before the format said it
	// should — typically a torn or incomplete write.
	ErrSnapshotTruncated = errors.New("store: snapshot truncated")
	// ErrSnapshotCorrupt: structurally invalid content (impossible term
	// kinds, dangling triple IDs, oversized lengths) with the length
	// intact.
	ErrSnapshotCorrupt = errors.New("store: snapshot corrupt")
	// ErrSnapshotChecksum: the trailing CRC-32 does not match the payload.
	ErrSnapshotChecksum = errors.New("store: snapshot checksum mismatch")
)

// errVersion reports a snapshot version this build does not serve.
func errVersion(v byte) error {
	return fmt.Errorf("%w %d (this build serves v%d; `rdfsum migrate` upgrades v1 files)",
		ErrSnapshotVersion, v, snapshotVersion2)
}

// truncatedOr classifies a read error: EOF-family errors mean the file
// ended early (truncation), anything else is an I/O failure passed
// through.
func truncatedOr(err error) error {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return ErrSnapshotTruncated
	}
	return err
}

// crcReader hashes exactly the bytes the parser consumes, which a
// TeeReader around a buffered reader cannot do (read-ahead would pollute
// the digest).
type crcReader struct {
	src *bufio.Reader
	crc hash.Hash32
}

func (c *crcReader) ReadByte() (byte, error) {
	b, err := c.src.ReadByte()
	if err == nil {
		var one [1]byte
		one[0] = b
		c.crc.Write(one[:]) //nolint:errcheck // hash writes cannot fail
	}
	return b, err
}

func (c *crcReader) Read(p []byte) (int, error) {
	n, err := c.src.Read(p)
	if n > 0 {
		c.crc.Write(p[:n]) //nolint:errcheck // hash writes cannot fail
	}
	return n, err
}

// ReadSnapshot reconstructs a graph from a snapshot stream, verifying
// every checksum eagerly (this is the streamed path — replication
// bootstrap and piped tooling — where the bytes are transient and a lazy
// view has nothing durable to map). Errors wrap the ErrSnapshot*
// sentinels.
func ReadSnapshot(r io.Reader) (*Graph, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, truncatedOr(err)
	}
	c, err := parseContainer(data, true)
	if err != nil {
		return nil, err
	}
	return graphFromContainer(c)
}

// UpgradeFile rewrites the v1 snapshot at path as v2, atomically (see
// WriteFileAtomic), and reports whether it did. A v2 file is left alone.
func UpgradeFile(path string) (bool, error) {
	f, err := os.Open(path)
	if err != nil {
		return false, err
	}
	defer f.Close()
	br := bufio.NewReader(f)
	if hdr, err := br.Peek(len(snapshotMagic) + 1); err == nil &&
		string(hdr[:len(snapshotMagic)]) == snapshotMagic && hdr[len(snapshotMagic)] == snapshotVersion2 {
		return false, nil
	}
	g, err := readSnapshotV1(br)
	if err != nil {
		return false, fmt.Errorf("%s: %w", path, err)
	}
	return true, SaveFile(path, g)
}

// readSnapshotV1 parses the v1 format, header included.
func readSnapshotV1(r io.Reader) (*Graph, error) {
	br := &crcReader{src: bufio.NewReader(r), crc: crc32.NewIEEE()}

	magic := make([]byte, len(snapshotMagic)+1)
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("snapshot header: %w", truncatedOr(err))
	}
	if string(magic[:len(snapshotMagic)]) != snapshotMagic {
		return nil, ErrSnapshotMagic
	}
	if v := magic[len(snapshotMagic)]; v != snapshotVersion {
		return nil, errVersion(v)
	}

	nTerms, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("snapshot dictionary size: %w", truncatedOr(err))
	}
	d := dict.WithCapacity(int(nTerms))
	for i := uint64(0); i < nTerms; i++ {
		kind, err := br.ReadByte()
		if err != nil {
			return nil, fmt.Errorf("snapshot term %d: %w", i, truncatedOr(err))
		}
		value, err := readString(br)
		if err != nil {
			return nil, fmt.Errorf("snapshot term %d: %w", i, truncatedOr(err))
		}
		t := rdf.Term{Kind: rdf.TermKind(kind), Value: value}
		if t.Kind == rdf.Literal {
			if t.Datatype, err = readString(br); err != nil {
				return nil, fmt.Errorf("snapshot term %d: %w", i, truncatedOr(err))
			}
			if t.Lang, err = readString(br); err != nil {
				return nil, fmt.Errorf("snapshot term %d: %w", i, truncatedOr(err))
			}
		}
		switch t.Kind {
		case rdf.IRI, rdf.Blank, rdf.Literal:
		default:
			return nil, fmt.Errorf("%w: term %d has invalid kind %d", ErrSnapshotCorrupt, i, kind)
		}
		d.Encode(t)
	}
	if d.Len() != int(nTerms) {
		return nil, fmt.Errorf("%w: dictionary holds duplicate terms", ErrSnapshotCorrupt)
	}

	g := NewGraphWithDict(d)
	maxID := uint64(d.MaxID())
	for comp := 0; comp < 3; comp++ {
		n, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("snapshot component %d size: %w", comp, truncatedOr(err))
		}
		ts := make([]Triple, 0, n)
		for i := uint64(0); i < n; i++ {
			var ids [3]uint64
			for j := range ids {
				ids[j], err = binary.ReadUvarint(br)
				if err != nil {
					return nil, fmt.Errorf("snapshot component %d triple %d: %w", comp, i, truncatedOr(err))
				}
				if ids[j] == 0 || ids[j] > maxID {
					return nil, fmt.Errorf("%w: triple references unknown term id %d", ErrSnapshotCorrupt, ids[j])
				}
			}
			ts = append(ts, Triple{dict.ID(ids[0]), dict.ID(ids[1]), dict.ID(ids[2])})
		}
		switch comp {
		case 0:
			g.Data = ts
		case 1:
			g.Types = ts
		case 2:
			g.Schema = ts
		}
	}

	want := br.crc.Sum32() // checksum of exactly the consumed payload bytes
	var sum [4]byte
	if _, err := io.ReadFull(br.src, sum[:]); err != nil {
		return nil, fmt.Errorf("snapshot checksum: %w", truncatedOr(err))
	}
	if binary.LittleEndian.Uint32(sum[:]) != want {
		return nil, fmt.Errorf("%w (want %08x, file carries %08x)",
			ErrSnapshotChecksum, want, binary.LittleEndian.Uint32(sum[:]))
	}
	return g, nil
}

// SaveFile writes a snapshot to path in the current (v2) format,
// replacing any existing file atomically (see WriteFileAtomic).
func SaveFile(path string, g *Graph) error {
	return WriteFileAtomic(path, true, func(w io.Writer) error { return WriteSnapshotV2(w, g) })
}

// LoadFile reads a snapshot from path.
func LoadFile(path string) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadSnapshot(f)
}

// WriteFileAtomic replaces path with what write produces. It writes a
// temporary file beside path and renames it over path, so a failed or
// interrupted write leaves the previous file untouched and no temporary
// behind. With sync set, the data is fsynced before the rename and the
// directory after it, so the new file is durable when WriteFileAtomic
// returns.
func WriteFileAtomic(path string, sync bool, write func(io.Writer) error) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	err = write(f)
	if err == nil && sync {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	if !sync {
		return nil
	}
	d, err := os.Open(filepath.Dir(path))
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

func readString(br *crcReader) (string, error) {
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return "", err
	}
	if n > 1<<31 {
		return "", fmt.Errorf("%w: string length %d too large", ErrSnapshotCorrupt, n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(br, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}
