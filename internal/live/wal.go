package live

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"time"

	"rdfsum/internal/rdf"
)

// Write-ahead log format. The framing follows the conventions of the
// store snapshot format (internal/store/persist.go): a magic+version
// header, length-prefixed payloads, and CRC-32 (IEEE) integrity — but
// framed per record rather than per file, so a torn tail costs only the
// final unacknowledged batch:
//
//	header  "RDFSUMWAL" + format version byte (2)
//	record  uint32 LE payload length
//	        uint32 LE CRC-32 (IEEE) of the payload
//	        payload
//	payload op byte: 0 = add batch, 1 = delete batch
//	        uvarint triple count, then per triple three terms:
//	        kind byte, uvarint-length-prefixed value
//	        [, datatype, lang for literals]
//
// Version 1 payloads lacked the op byte; only Migrate (migrate.go) reads
// them.
//
// Records hold string-level triples (not dictionary IDs): the dictionary
// is rebuilt deterministically on replay, so the log stays valid across
// compactions and across processes with different ID assignments.
const (
	walMagic = "RDFSUMWAL"
	// WALVersion is the one WAL format this build reads and writes; a
	// replication leader announces it in its manifest.
	WALVersion = 2
	// maxWALRecordBytes bounds a single record; larger length prefixes are
	// treated as corruption rather than allocation requests.
	maxWALRecordBytes = 1 << 30
	// walChunkBytes is where append cuts a large batch into multiple
	// records (one fsync still covers them all). Kept far below
	// maxWALRecordBytes so no acknowledged record can ever be mistaken
	// for corruption at replay.
	walChunkBytes = 16 << 20
)

// Op tags a record's effect on the graph. It is exported so replication
// followers (internal/repl) can apply shipped WAL records through the
// matching Live mutation.
type Op byte

const (
	OpAdd    Op = 0
	OpDelete Op = 1
)

// WAL read failures, classified like store's snapshot errors.
var (
	// ErrWALMagic: the file does not start with the WAL magic.
	ErrWALMagic = errors.New("live: not a WAL file (bad magic)")
	// ErrWALVersion: a WAL, but a format version this build does not read.
	ErrWALVersion = errors.New("live: unsupported WAL version")
)

// errWALVersion reports a WAL version this build does not read.
func errWALVersion(v byte) error {
	return fmt.Errorf("%w %d (this build reads v%d; `rdfsum migrate` upgrades v1 stores)",
		ErrWALVersion, v, WALVersion)
}

// walHeaderLen is the byte length of the WAL header.
const walHeaderLen = len(walMagic) + 1

// wal is the append side of one write-ahead log file.
type wal struct {
	f       *os.File
	size    int64 // bytes written and (if sync) durable
	records int64 // records framed into those bytes (replayed prefix included)
	sync    bool  // fsync after every append (group commit per batch)
	broken  bool  // a failed append could not be rolled back; no more writes
}

// createWAL creates path with a fresh header, synced to disk.
func createWAL(path string, sync bool) (*wal, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	if _, err := f.Write(append([]byte(walMagic), WALVersion)); err != nil {
		f.Close()
		return nil, err
	}
	if sync {
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, err
		}
	}
	return &wal{f: f, size: int64(walHeaderLen), sync: sync}, nil
}

// openWALForAppend opens an existing WAL whose valid prefix ends at size
// and holds records framed records (both as counted by replayWAL) and
// positions the write cursor there.
// Any torn tail beyond size is truncated away first, so the next append
// starts on a clean record boundary.
func openWALForAppend(path string, size int64, sync bool, records int64) (*wal, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	if st.Size() > size {
		if err := f.Truncate(size); err != nil {
			f.Close()
			return nil, err
		}
		if sync {
			if err := f.Sync(); err != nil {
				f.Close()
				return nil, err
			}
		}
	}
	if _, err := f.Seek(size, io.SeekStart); err != nil {
		f.Close()
		return nil, err
	}
	return &wal{f: f, size: size, sync: sync, records: records}, nil
}

// append frames and writes one add batch; see appendOp.
func (w *wal) append(triples []rdf.Triple) error { return w.appendOp(OpAdd, triples) }

// appendOp frames and writes one batch under the given op; with sync
// enabled the batch is durable (acknowledged) when appendOp returns. A
// batch normally occupies one record, but batches whose payload would
// exceed walChunkBytes are cut at triple boundaries into several records —
// every record must stay decodable below maxWALRecordBytes, or replay
// would misread an acknowledged record as tail corruption. One fsync
// covers all records of the batch (the group-commit unit); a crash
// mid-batch can recover a prefix of the (unacknowledged) batch's records,
// never lose an acknowledged one.
func (w *wal) appendOp(op Op, triples []rdf.Triple) error {
	if w.broken {
		return errors.New("live: wal is broken after a failed append; reopen the store")
	}
	t0 := time.Now()
	written := int64(0)
	nrecs := int64(0)
	var body []byte
	count := 0
	flush := func() error {
		if count == 0 {
			return nil
		}
		payload := binary.AppendUvarint([]byte{byte(op)}, uint64(count))
		payload = append(payload, body...)
		body, count = body[:0], 0
		if err := writeRecord(w.f, payload); err != nil {
			return fmt.Errorf("live: wal append: %w", err)
		}
		written += int64(8 + len(payload))
		nrecs++
		return nil
	}
	// Worst-case payload: a body one byte shy of walChunkBytes plus one
	// maximal triple plus the uvarint count prefix must stay below
	// maxWALRecordBytes, or replay would misread the acknowledged record
	// as tail corruption.
	const maxTripleBytes = maxWALRecordBytes - walChunkBytes - 16
	for _, t := range triples {
		before := len(body)
		body = appendTerm(appendTerm(appendTerm(body, t.S), t.P), t.O)
		if len(body)-before > maxTripleBytes {
			// A single triple this size cannot be framed safely.
			w.rollback()
			return fmt.Errorf("live: triple of %d encoded bytes exceeds the WAL record limit", len(body)-before)
		}
		count++
		if len(body) >= walChunkBytes {
			if err := flush(); err != nil {
				w.rollback()
				return err
			}
		}
	}
	if err := flush(); err != nil {
		w.rollback()
		return err
	}
	walAppendSeconds.ObserveSince(t0)
	if w.sync {
		tSync := time.Now()
		if err := w.f.Sync(); err != nil {
			// After a failed fsync the kernel may have dropped the dirty
			// pages (or not) — the records' durability is unknowable, so
			// the log must not accept further acknowledgments.
			w.broken = true
			return fmt.Errorf("live: wal sync: %w", err)
		}
		walFsyncSeconds.ObserveSince(tSync)
	}
	w.size += written
	w.records += nrecs
	return nil
}

// rollback removes the partial garbage a failed append left behind, so
// the next record starts on a clean boundary. If the file cannot be
// restored, replay would stop at the garbage and silently drop every
// later record — so the WAL refuses further appends instead.
func (w *wal) rollback() {
	if err := w.f.Truncate(w.size); err != nil {
		w.broken = true
		return
	}
	if _, err := w.f.Seek(w.size, io.SeekStart); err != nil {
		w.broken = true
	}
}

func (w *wal) close() error {
	if w.f == nil {
		return nil
	}
	err := w.f.Close()
	w.f = nil
	return err
}

// writeRecord frames payload (length, CRC) and writes it to w.
func writeRecord(w io.Writer, payload []byte) error {
	var frame [8]byte
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(payload))
	if _, err := w.Write(frame[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

func appendTerm(buf []byte, t rdf.Term) []byte {
	buf = append(buf, byte(t.Kind))
	buf = binary.AppendUvarint(buf, uint64(len(t.Value)))
	buf = append(buf, t.Value...)
	if t.Kind == rdf.Literal {
		buf = binary.AppendUvarint(buf, uint64(len(t.Datatype)))
		buf = append(buf, t.Datatype...)
		buf = binary.AppendUvarint(buf, uint64(len(t.Lang)))
		buf = append(buf, t.Lang...)
	}
	return buf
}

// decodeBatch parses one record payload back into its op and triples.
func decodeBatch(payload []byte) (Op, []rdf.Triple, error) {
	if len(payload) == 0 {
		return 0, nil, errShortRecord
	}
	op := Op(payload[0])
	if op != OpAdd && op != OpDelete {
		return 0, nil, fmt.Errorf("live: wal record has invalid op %d", op)
	}
	r := payloadCursor{b: payload[1:]}
	n, err := r.uvarint()
	if err != nil {
		return 0, nil, err
	}
	if n > uint64(len(payload)) { // 3 terms * >=2 bytes each per triple
		return 0, nil, fmt.Errorf("live: wal record claims %d triples in %d bytes", n, len(payload))
	}
	out := make([]rdf.Triple, 0, n)
	for i := uint64(0); i < n; i++ {
		var t rdf.Triple
		if t.S, err = r.term(); err != nil {
			return 0, nil, err
		}
		if t.P, err = r.term(); err != nil {
			return 0, nil, err
		}
		if t.O, err = r.term(); err != nil {
			return 0, nil, err
		}
		out = append(out, t)
	}
	if len(r.b) != 0 {
		return 0, nil, fmt.Errorf("live: wal record has %d trailing bytes", len(r.b))
	}
	return op, out, nil
}

// payloadCursor is a tiny cursor over a record payload.
type payloadCursor struct{ b []byte }

var errShortRecord = errors.New("live: wal record ends mid-field")

func (r *payloadCursor) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		return 0, errShortRecord
	}
	r.b = r.b[n:]
	return v, nil
}

func (r *payloadCursor) str() (string, error) {
	n, err := r.uvarint()
	if err != nil {
		return "", err
	}
	if n > uint64(len(r.b)) {
		return "", errShortRecord
	}
	s := string(r.b[:n])
	r.b = r.b[n:]
	return s, nil
}

func (r *payloadCursor) term() (rdf.Term, error) {
	if len(r.b) == 0 {
		return rdf.Term{}, errShortRecord
	}
	kind := rdf.TermKind(r.b[0])
	r.b = r.b[1:]
	switch kind {
	case rdf.IRI, rdf.Blank, rdf.Literal:
	default:
		return rdf.Term{}, fmt.Errorf("live: wal term has invalid kind %d", kind)
	}
	t := rdf.Term{Kind: kind}
	var err error
	if t.Value, err = r.str(); err != nil {
		return rdf.Term{}, err
	}
	if kind == rdf.Literal {
		if t.Datatype, err = r.str(); err != nil {
			return rdf.Term{}, err
		}
		if t.Lang, err = r.str(); err != nil {
			return rdf.Term{}, err
		}
	}
	return t, nil
}

// replayWAL reads records from path, calling apply once per complete,
// checksummed batch with its operation (add or delete). It returns the
// byte offset just past the last good record and whether a torn or
// corrupt tail was dropped — the truncation-tolerant recovery contract: a
// crash mid-append loses exactly the unacknowledged suffix, never an
// acknowledged batch.
//
// A bad header (wrong magic or another version) is a hard error: it means
// the file is not ours to append to, which truncation must not "repair".
func replayWAL(path string, apply func(Op, []rdf.Triple) error) (good int64, torn bool, err error) {
	f, rr, v, err := openWAL(path)
	if err != nil {
		return 0, false, err
	}
	defer f.Close()
	if v != WALVersion {
		return 0, false, errWALVersion(v)
	}
	good = int64(walHeaderLen)
	for {
		op, triples, n, err := rr.Next()
		if err != nil {
			// Clean EOF: the log ends on a record boundary. Anything else
			// (a cut or corrupt record) is a torn tail.
			return good, err != io.EOF, nil
		}
		if err := apply(op, triples); err != nil {
			return good, false, err
		}
		good += n
	}
}

// openWAL opens the WAL at path, checks its magic and returns a record
// reader past the header, with the header's format version.
func openWAL(path string) (*os.File, *WALRecordReader, byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, 0, err
	}
	rr := NewWALRecordReader(f)
	header := make([]byte, walHeaderLen)
	if _, err := io.ReadFull(rr.br, header); err != nil {
		// A WAL shorter than its header can only come from a crash during
		// creation before the manifest referenced it, or external
		// truncation; surface it as a hard error (Open never hits this on
		// files it created, because headers are synced before CURRENT).
		f.Close()
		return nil, nil, 0, fmt.Errorf("live: wal header: %w", err)
	}
	if string(header[:len(walMagic)]) != walMagic {
		f.Close()
		return nil, nil, 0, ErrWALMagic
	}
	return f, rr, header[len(walMagic)], nil
}
