// Package live implements the read-write axis of the system: a
// concurrent, durable, mutable RDF graph with incremental summary
// maintenance and snapshot-isolated serving.
//
// The design is single-writer / multi-reader:
//
//   - Writers append through Add/AddBatch. Each batch is framed into a
//     CRC-checked write-ahead log record and fsynced (group commit) before
//     it is applied in memory — an acknowledged batch survives a crash.
//   - Readers call Snapshot and get an immutable epoch: a copy-on-write
//     view of the graph, a merged triple index, and the epoch number,
//     published atomically and never mutated in place. Queries keep
//     running at full speed against their epoch while ingest proceeds.
//   - Summaries are maintained incrementally by the quotient engine
//     (core.BuilderSet): every kind listed in Options.Maintain is kept
//     current at O(α) amortized per triple, so serving it never pays a
//     full O(|G|) re-summarization. Kinds not maintained are rebuilt
//     lazily per epoch behind per-kind cells, with staleness reported to
//     callers. The default maintains the weak summary only, the cheapest
//     configuration; -maintain all trades write-side memory for
//     staleness-free serving of every kind.
//   - Deletions are first-class: Delete/DeleteBatch journal an OpDelete
//     WAL record, remove every stored copy of the listed triples, and
//     publish a tombstone run in the tiered index (the graph components
//     compact copy-on-write, so held snapshots are unaffected). Summary
//     maintenance shrinks exactly where the engine's bookkeeping is
//     refcounted and otherwise defers one counted rebuild to the next
//     Summary call — amortized across delete batches by the same maxStale
//     staleness policy that paces lazy rebuilds.
//   - The published index is tiered (see store.Index): each epoch appends
//     one immutable delta run, so publishing costs O(batch), not
//     O(graph); trailing same-level runs fold at Options.IndexFanout
//     width to bound read amplification, and Compact folds everything
//     back into a single run.
//   - Compact folds the WAL into a store snapshot file and swaps
//     generations through a CURRENT manifest, so recovery always sees a
//     consistent (snapshot, log) pair.
//
// On-disk layout of a live directory:
//
//	CURRENT            "gen <n>\n" — the active generation (atomic rename)
//	snapshot-<n>.rdfsum  store snapshot the generation starts from (absent
//	                     for a generation with an empty base)
//	wal-<n>.log          record-framed WAL of add/delete batches since
//	                     that snapshot
package live

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rdfsum/internal/core"
	"rdfsum/internal/rdf"
	"rdfsum/internal/store"
)

// Options tunes Open and New.
type Options struct {
	// NoSync disables the per-batch fsync. Throughput rises; the
	// durability guarantee weakens from "acknowledged batches survive a
	// crash" to "the WAL is consistent but may lose recent batches".
	NoSync bool
	// Seed is adopted as the initial graph when the directory holds no
	// prior state; it is compacted into the first snapshot so the WAL
	// starts empty. Ignored when the store already has state. The graph
	// is adopted, not copied — the caller must not use it afterwards.
	Seed *store.Graph
	// Maintain lists the summary kinds kept incrementally current during
	// ingest (served with no staleness and no per-epoch rebuild). nil
	// maintains the weak summary only — the PR-3 behavior; an explicit
	// empty slice maintains nothing. Unmaintained kinds rebuild lazily.
	Maintain []core.Kind
	// IndexFanout is the tiered index's fold width: once this many
	// trailing runs share a level they merge into one run of the next
	// level. 0 selects store.DefaultIndexFanout (8). Smaller values trade
	// ingest throughput for fewer runs on the query path.
	IndexFanout int
	// IndexSpillBytes, when positive, lets tiered-index folds spill runs
	// of at least this many (in-memory) bytes to on-disk column files
	// under <dir>/spill, served via mmap — bounding resident memory under
	// sustained ingest. Spill files are rebuildable state: the directory
	// is wiped on Open and never fsynced. Requires a durable store;
	// ignored for memory-only ones.
	IndexSpillBytes int64
	// VerifySnapshot forces eager verification of every v2 snapshot
	// section checksum at Open (paranoia mode). The default verifies the
	// header and TOC at open and each section lazily on first touch.
	VerifySnapshot bool
}

// maintainOrDefault resolves the Maintain option: nil means weak-only.
func maintainOrDefault(kinds []core.Kind) []core.Kind {
	if kinds == nil {
		return []core.Kind{core.Weak}
	}
	return kinds
}

// Snapshot is one published epoch: an immutable view served to readers.
type Snapshot struct {
	// Epoch increases by one per publication. Epoch 1 is the state at
	// Open/New.
	Epoch uint64
	// Graph is the copy-on-write view of the graph at this epoch. It
	// shares the live dictionary (which is in shared, locked mode) and
	// must not be mutated.
	Graph *store.Graph
	// Index is the triple-pattern index over Graph.
	Index *store.Index
}

// summaryCell caches the most recent build of one summary kind, tagged
// with the epoch it reflects. The mutex singleflights rebuilds of that
// kind without blocking other kinds. lazyBuilds counts the full
// re-summarizations this cell has paid — 0 for a maintained kind under
// normal operation, the observable "no full rebuild" guarantee.
type summaryCell struct {
	mu         sync.Mutex
	epoch      uint64
	sum        *core.Summary
	lazyBuilds uint64
}

// Live is a mutable graph service. The zero value is not usable; call
// Open or New. All methods are safe for concurrent use, with a single
// writer at a time making progress.
type Live struct {
	dir  string // "" = memory-only (no WAL, Compact unavailable)
	sync bool

	mu      sync.Mutex // serializes writers (Add/AddBatch/Delete/Compact/Close)
	set     *core.BuilderSet
	wal     *wal
	lock    *os.File // exclusive flock on the store directory (nil on non-unix / memory)
	gen     uint64
	applied uint64 // triples added to the in-memory graph (monotonic)
	deleted uint64 // triple copies removed (monotonic)
	fanout  int    // tiered-index fold width (0 = store default)
	spill   *store.SpillConfig
	sf      *store.SnapshotFile // mapped base snapshot (nil for a fresh or empty base)
	closed  bool

	maintained [core.NumKinds]bool

	// published is the epoch counter behind cur; mutated under mu only.
	published uint64
	cur       atomic.Pointer[Snapshot]

	// lastD/T/S are the component lengths at the last publication, for
	// delta extraction when merging the index.
	lastD, lastT, lastS int

	// watch, when non-nil, is closed at the next epoch publication —
	// the replication leader's long-poll wake-up (see Watch).
	watch chan struct{}

	cells [core.NumKinds]summaryCell // indexed by core.Kind

	// RecoveredTorn reports whether Open dropped a torn tail from the WAL
	// (the crash-recovery path was exercised).
	RecoveredTorn bool
}

// New returns a memory-only live graph over g (nil for empty): the full
// concurrency model without durability, maintaining the weak summary.
// Compact returns an error; the WAL is absent. The graph is adopted, not
// copied.
func New(g *store.Graph) *Live { return NewMaintaining(g, nil) }

// NewMaintaining is New with an explicit set of incrementally maintained
// summary kinds (nil = weak only, empty = none). It panics on an invalid
// kind — callers obtain kinds from core.ParseKind or the Kind constants.
func NewMaintaining(g *store.Graph, kinds []core.Kind) *Live {
	return NewWithOptions(g, Options{Maintain: kinds})
}

// NewWithOptions is the memory-only constructor honoring Maintain and
// IndexFanout (NoSync and Seed are meaningless without a directory and
// are ignored). It panics on an invalid kind.
func NewWithOptions(g *store.Graph, opts Options) *Live {
	if g == nil {
		g = store.NewGraph()
	}
	g.Dict().Share()
	l := &Live{sync: false, fanout: opts.IndexFanout}
	if err := l.initBuilders(g, opts.Maintain); err != nil {
		panic(err)
	}
	l.applied = uint64(g.NumEdges())
	l.mu.Lock()
	l.publishLocked()
	l.mu.Unlock()
	return l
}

// initBuilders installs the maintained-kind builder set over g.
func (l *Live) initBuilders(g *store.Graph, kinds []core.Kind) error {
	set, err := core.NewBuilderSet(g, maintainOrDefault(kinds))
	if err != nil {
		return err
	}
	l.set = set
	for _, k := range set.Kinds() {
		l.maintained[k] = true
	}
	return nil
}

// Open opens (or initializes) a durable live store in dir: it loads the
// current generation's snapshot, replays the WAL over it — truncating a
// torn tail, so exactly the acknowledged batches come back — and publishes
// epoch 1. A store in the v1 snapshot or WAL format is refused; Migrate
// upgrades it.
func Open(dir string, opts Options) (*Live, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	lock, err := lockDir(dir)
	if err != nil {
		return nil, err
	}
	opened := false
	defer func() {
		if !opened && lock != nil {
			lock.Close()
		}
	}()
	l := &Live{dir: dir, sync: !opts.NoSync, lock: lock, fanout: opts.IndexFanout}
	if opts.IndexSpillBytes > 0 {
		// Spill files are rebuildable (snapshot + WAL recover everything),
		// so leftovers from a previous process are just wiped.
		spillDir := filepath.Join(dir, "spill")
		if err := os.RemoveAll(spillDir); err != nil {
			return nil, err
		}
		if err := os.MkdirAll(spillDir, 0o755); err != nil {
			return nil, err
		}
		l.spill = &store.SpillConfig{Dir: spillDir, MinBytes: opts.IndexSpillBytes}
	}

	gen, err := readManifest(dir)
	switch {
	case errors.Is(err, os.ErrNotExist):
		// Fresh directory: generation 1, optionally seeded.
		g := opts.Seed
		if g == nil {
			g = store.NewGraph()
		}
		g.Dict().Share()
		if err := l.initBuilders(g, opts.Maintain); err != nil {
			return nil, err
		}
		l.gen = 1
		if opts.Seed != nil && g.NumEdges() > 0 {
			// Persist the seed as the generation's base snapshot so the
			// WAL starts empty and replay cost stays proportional to
			// post-seed writes.
			if err := l.writeSnapshotFile(1, g); err != nil {
				return nil, err
			}
		}
		l.wal, err = createWAL(l.walPath(1), l.sync)
		if err != nil {
			return nil, err
		}
		if err := writeManifest(dir, 1); err != nil {
			l.wal.close()
			return nil, err
		}
	case err != nil:
		return nil, err
	default:
		var g *store.Graph
		snapPath := l.snapshotPath(gen)
		switch _, statErr := os.Stat(snapPath); {
		case statErr == nil:
			// The snapshot is mapped and materializes lazily — with no
			// maintained kinds this makes Open O(1) in snapshot size.
			g, l.sf, err = store.OpenGraphFile(snapPath, opts.VerifySnapshot)
			if err != nil {
				return nil, fmt.Errorf("live: generation %d snapshot: %w", gen, err)
			}
		case errors.Is(statErr, fs.ErrNotExist):
			// A generation whose base graph was empty writes no snapshot.
			g = store.NewGraph()
		default:
			// Any other failure (EACCES, EIO, …) must not be mistaken for
			// "no snapshot": opening with an empty base and later
			// compacting would silently discard the store's history.
			return nil, fmt.Errorf("live: generation %d snapshot: %w", gen, statErr)
		}
		g.Dict().Share()
		if err := l.initBuilders(g, opts.Maintain); err != nil {
			return nil, err
		}
		l.gen = gen
		records := int64(0)
		good, torn, err := replayWAL(l.walPath(gen), func(op Op, triples []rdf.Triple) error {
			records++
			if op == OpDelete {
				removed, _ := l.set.DeleteBatch(triples)
				l.deleted += uint64(removed)
				return nil
			}
			for _, t := range triples {
				l.set.Add(t)
			}
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("live: generation %d wal: %w", gen, err)
		}
		l.RecoveredTorn = torn
		l.wal, err = openWALForAppend(l.walPath(gen), good, l.sync, records)
		if err != nil {
			return nil, err
		}
	}

	l.applied = uint64(l.graph().NumEdges()) + l.deleted
	l.mu.Lock()
	l.publishLocked()
	l.mu.Unlock()
	l.removeStaleGenerations()
	opened = true
	return l, nil
}

// graph is the writer-side mutable graph (the builder set owns it).
func (l *Live) graph() *store.Graph { return l.set.Graph() }

// Maintained reports whether kind is kept incrementally current by the
// quotient engine (served with no staleness and no per-epoch rebuild).
func (l *Live) Maintained(kind core.Kind) bool {
	return int(kind) >= 0 && int(kind) < core.NumKinds && l.maintained[kind]
}

// MaintainedKinds lists the incrementally maintained kinds.
func (l *Live) MaintainedKinds() []core.Kind { return l.set.Kinds() }

// Durable reports whether the store is backed by a WAL directory.
func (l *Live) Durable() bool { return l.dir != "" }

// Dir returns the store directory ("" for memory-only).
func (l *Live) Dir() string { return l.dir }

// Epoch returns the currently published epoch.
func (l *Live) Epoch() uint64 { return l.cur.Load().Epoch }

// Snapshot returns the current published epoch. The result is immutable
// and remains valid (and consistent) for as long as the caller holds it,
// regardless of concurrent ingest or compaction.
func (l *Live) Snapshot() *Snapshot { return l.cur.Load() }

// Add appends one triple: WAL record, fsync, apply, publish. Equivalent
// to AddBatch with a single triple — batch writes amortize much better.
func (l *Live) Add(t rdf.Triple) error { return l.AddBatch([]rdf.Triple{t}) }

// AddBatch appends a batch of triples as one WAL record and one fsync
// (group commit), applies them to the graph and the incremental weak
// summary, and publishes a new epoch. When AddBatch returns nil on a
// durable store, the batch survives a crash.
func (l *Live) AddBatch(triples []rdf.Triple) error {
	if len(triples) == 0 {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return errors.New("live: store is closed")
	}
	if l.wal != nil {
		if err := l.wal.append(triples); err != nil {
			return err
		}
	}
	for _, t := range triples {
		l.set.Add(t)
	}
	l.applied += uint64(len(triples))
	l.publishLocked()
	return nil
}

// Delete removes every stored copy of one triple; see DeleteBatch.
func (l *Live) Delete(t rdf.Triple) (int, error) { return l.DeleteBatch([]rdf.Triple{t}) }

// DeleteBatch removes every stored copy of each listed triple as one
// acknowledged batch: an OpDelete WAL record is written and fsynced
// (durable stores), the graph and every maintained summary shrink —
// exactly where the engine's bookkeeping is refcounted, else via a
// counted rebuild deferred to the next Summary call — and a new epoch
// publishes with a tombstone run in the index. Readers holding earlier
// epochs are unaffected: their graph views and index runs are immutable.
// Triples not present are ignored; the count of removed copies is
// returned. When DeleteBatch returns nil error on a durable store, the
// deletion survives a crash.
func (l *Live) DeleteBatch(triples []rdf.Triple) (int, error) {
	if len(triples) == 0 {
		return 0, nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, errors.New("live: store is closed")
	}
	if !l.anyPresentLocked(triples) {
		// Nothing to remove: skip the WAL record, the component scan and
		// — crucially — the epoch publish, which would needlessly
		// invalidate every cached summary and pruner.
		return 0, nil
	}
	if l.wal != nil {
		if err := l.wal.appendOp(OpDelete, triples); err != nil {
			return 0, err
		}
	}
	removed, tombs := l.set.DeleteBatch(triples)
	l.deleted += uint64(removed)
	l.publishDeletesLocked(tombs)
	return removed, nil
}

// anyPresentLocked probes the published index (which matches the writer's
// state under l.mu) for any stored copy of the listed triples — an
// O(batch · log n) pre-check that lets a no-op delete return without side
// effects.
func (l *Live) anyPresentLocked(triples []rdf.Triple) bool {
	d := l.graph().Dict()
	ix := l.cur.Load().Index
	for _, t := range triples {
		s, okS := d.Lookup(t.S)
		p, okP := d.Lookup(t.P)
		o, okO := d.Lookup(t.O)
		if okS && okP && okO && ix.Contains(store.Triple{S: s, P: p, O: o}) {
			return true
		}
	}
	return false
}

// publishLocked builds and atomically installs the next epoch after an
// append (or at open). Caller holds l.mu. The graph view shares storage
// with the writer's graph (copy-on-write: appends land beyond the view's
// clipped bounds); the index gains one delta run holding only the batch,
// so publish cost is O(batch), independent of the graph size.
func (l *Live) publishLocked() {
	defer epochPublishSeconds.ObserveSince(time.Now())
	g := l.graph()
	view := g.SnapshotView()
	var ix *store.Index
	if prev := l.cur.Load(); prev == nil {
		opts := store.IndexOptions{Fanout: l.fanout, Spill: l.spill}
		if base := g.Base(); base != nil {
			// Snapshot-backed graph, still unmaterialized: the index's base
			// run is the snapshot's own column sections, served zero-copy
			// from the mapping, and the component slices hold only the
			// WAL-replayed tail. Nothing O(|G|) happens here.
			tail := make([]store.Triple, 0, len(g.Data)+len(g.Types)+len(g.Schema))
			tail = append(tail, g.Data...)
			tail = append(tail, g.Types...)
			tail = append(tail, g.Schema...)
			ix = store.NewIndexFromBase(base.Runs(), tail, opts)
		} else {
			ix = store.NewIndexWithOptions(view, opts)
		}
	} else {
		delta := make([]store.Triple, 0,
			len(g.Data)-l.lastD+len(g.Types)-l.lastT+len(g.Schema)-l.lastS)
		delta = append(delta, g.Data[l.lastD:]...)
		delta = append(delta, g.Types[l.lastT:]...)
		delta = append(delta, g.Schema[l.lastS:]...)
		ix = prev.Index.Applied(delta, nil)
	}
	l.installLocked(view, ix)
}

// publishDeletesLocked installs the epoch after a delete batch: the
// writer's components were compacted into fresh slices (held views keep
// the old ones), and the index gains one tombstone run suppressing the
// removed triples — O(batch) again, no index rebuild.
func (l *Live) publishDeletesLocked(tombs []store.Triple) {
	defer epochPublishSeconds.ObserveSince(time.Now())
	view := l.graph().SnapshotView()
	ix := l.cur.Load().Index.Applied(nil, tombs)
	l.installLocked(view, ix)
}

// publishCompactedLocked installs an epoch whose index is folded into a
// single run with all tombstones dropped (the graph is unchanged).
func (l *Live) publishCompactedLocked() {
	defer epochPublishSeconds.ObserveSince(time.Now())
	cur := l.cur.Load()
	l.installLocked(cur.Graph, cur.Index.Compacted())
}

func (l *Live) installLocked(view *store.Graph, ix *store.Index) {
	g := l.graph()
	l.lastD, l.lastT, l.lastS = len(g.Data), len(g.Types), len(g.Schema)
	l.published++
	l.cur.Store(&Snapshot{Epoch: l.published, Graph: view, Index: ix})
	if l.watch != nil {
		close(l.watch)
		l.watch = nil
	}
}

// Summary returns the summary of the given kind for (at least) the
// current epoch, along with the epoch it was built at. Maintained kinds
// come from the incremental builder set when it still matches the
// published epoch (no full pass over the graph); every other kind — or a
// maintained kind raced by concurrent ingest — is summarized afresh from
// the epoch's frozen view (core.Summarize: a one-kind builder set seeded
// with the view). maxStale permits serving a cached summary up to
// that many epochs old (0 = always current), the staleness policy a
// serving layer exposes to its clients.
func (l *Live) Summary(kind core.Kind, maxStale uint64) (*core.Summary, uint64, error) {
	if int(kind) < 0 || int(kind) >= len(l.cells) {
		return nil, 0, fmt.Errorf("core: unknown summary kind %d", int(kind))
	}
	snap := l.Snapshot()
	cell := &l.cells[kind]
	cell.mu.Lock()
	defer cell.mu.Unlock()
	if cell.sum != nil && cell.epoch+maxStale >= snap.Epoch {
		return cell.sum, cell.epoch, nil
	}
	var s *core.Summary
	if l.maintained[kind] {
		s = l.fromBuilders(kind, snap.Epoch)
	}
	if s == nil {
		var err error
		s, err = core.Summarize(snap.Graph, kind)
		if err != nil {
			return nil, 0, err
		}
		cell.lazyBuilds++
	}
	cell.sum, cell.epoch = s, snap.Epoch
	return s, snap.Epoch, nil
}

// fromBuilders materializes a maintained summary from the incremental
// builder set, provided no ingest has happened since epoch was published
// (the builders always reflect the writer's head, which may be ahead of
// the epoch a reader is entitled to). Returns nil when raced; the caller
// falls back to summarizing the frozen view afresh — the same engine
// seeded with the same triples, so the same summary.
func (l *Live) fromBuilders(kind core.Kind, epoch uint64) *core.Summary {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.published != epoch {
		return nil
	}
	s, err := l.set.Summary(kind)
	if err != nil {
		return nil
	}
	// The engine's summary aliases the writer's mutable graph as its
	// Input. Freeze Input to the epoch's published view (identical
	// content while we hold l.mu at the matching epoch) so consumers —
	// ComputeWeights iterates Input's components — stay safe under
	// concurrent ingest.
	s.Input = l.cur.Load().Graph
	return s
}

// KindStatus reports one summary kind's maintenance state, the ground
// truth behind rdfsumd's /metrics endpoint.
type KindStatus struct {
	Kind core.Kind
	// Maintained: kept incrementally current by the quotient engine.
	Maintained bool
	// CachedEpoch is the epoch of the last materialized summary (0 when
	// none was served yet).
	CachedEpoch uint64
	// LazyBuilds counts full re-summarizations served for this
	// kind — the cost maintained kinds avoid (they stay at 0 barring a
	// snapshot raced by concurrent ingest).
	LazyBuilds uint64
	// Rebuilds counts the engine-internal state reconstructions forced
	// by late-typing events (typed kinds only; see core.Builder).
	Rebuilds uint64
}

// Status reports, per summary kind, its maintenance mode and rebuild
// counters.
func (l *Live) Status() []KindStatus {
	l.mu.Lock()
	rebuilds := make(map[core.Kind]uint64, core.NumKinds)
	for _, k := range l.set.Kinds() {
		rebuilds[k] = l.set.Rebuilds(k)
	}
	l.mu.Unlock()
	out := make([]KindStatus, 0, core.NumKinds)
	for _, k := range core.Kinds {
		cell := &l.cells[k]
		cell.mu.Lock()
		st := KindStatus{
			Kind:        k,
			Maintained:  l.maintained[k],
			CachedEpoch: cell.epoch,
			LazyBuilds:  cell.lazyBuilds,
			Rebuilds:    rebuilds[k],
		}
		cell.mu.Unlock()
		out = append(out, st)
	}
	return out
}

// Stats reports the live store's serving counters.
type Stats struct {
	Epoch      uint64 // current published epoch
	Triples    uint64 // triples currently in the graph
	Added      uint64 // triples ever added (monotonic)
	Deleted    uint64 // triple copies ever removed (monotonic)
	Gen        uint64 // on-disk generation (0 for memory-only)
	WALBytes   int64  // bytes in the active WAL (0 for memory-only)
	IndexRuns  int    // runs in the published tiered index (read amplification)
	IndexTombs int    // tombstones retained across those runs
	Durable    bool
}

// Stats returns current counters.
func (l *Live) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	st := Stats{
		Epoch:   l.published,
		Triples: uint64(l.graph().NumEdges()),
		Added:   l.applied,
		Deleted: l.deleted,
		Durable: l.dir != "",
		Gen:     l.gen,
	}
	if snap := l.cur.Load(); snap != nil {
		st.IndexRuns = snap.Index.Runs()
		st.IndexTombs = snap.Index.Tombstones()
	}
	if l.wal != nil {
		st.WALBytes = l.wal.size
	}
	return st
}

// Compact folds the WAL into a fresh store snapshot and starts an empty
// log: it writes snapshot-<gen+1>, creates wal-<gen+1>, atomically swaps
// CURRENT to the new generation, and deletes the old generation's files.
// A crash at any point leaves either the old generation fully intact or
// the new one fully current — never a half state. It also publishes an
// epoch whose index is folded into a single run with every tombstone
// dropped, resetting read amplification. Readers are unaffected: their
// epochs reference only in-memory state, and index runs are immutable —
// a snapshot held across a Compact keeps its exact contents.
func (l *Live) Compact() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return errors.New("live: store is closed")
	}
	if l.dir == "" {
		return errors.New("live: memory-only store cannot compact (no directory)")
	}
	newGen := l.gen + 1
	if err := l.writeSnapshotFile(newGen, l.graph()); err != nil {
		return err
	}
	newWAL, err := createWAL(l.walPath(newGen), l.sync)
	if err != nil {
		return err
	}
	if err := writeManifest(l.dir, newGen); err != nil {
		newWAL.close()
		return err
	}
	// The new generation is current; retire the old one.
	oldGen := l.gen
	l.wal.close()
	l.wal, l.gen = newWAL, newGen
	os.Remove(l.walPath(oldGen))
	os.Remove(l.snapshotPath(oldGen))
	l.publishCompactedLocked()
	return nil
}

// CompactIndex folds the published index into a single run, dropping all
// tombstones, and publishes the result as a new epoch — the in-memory
// half of Compact, available on memory-only stores.
func (l *Live) CompactIndex() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return errors.New("live: store is closed")
	}
	l.publishCompactedLocked()
	return nil
}

// Close flushes and closes the WAL and releases the directory lock.
// Published snapshots remain usable; further writes fail.
func (l *Live) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	if l.watch != nil {
		// Wake long-polling replication watchers instead of leaving them
		// to their timeouts.
		close(l.watch)
		l.watch = nil
	}
	var err error
	if l.wal != nil {
		err = l.wal.close()
	}
	if l.lock != nil {
		if cerr := l.lock.Close(); err == nil {
			err = cerr
		}
		l.lock = nil
	}
	return err
}

// --- manifest and file layout ---------------------------------------------

func (l *Live) walPath(gen uint64) string {
	return filepath.Join(l.dir, fmt.Sprintf("wal-%d.log", gen))
}

func (l *Live) snapshotPath(gen uint64) string {
	return filepath.Join(l.dir, fmt.Sprintf("snapshot-%d.rdfsum", gen))
}

// writeSnapshotFile durably writes gen's base snapshot, atomically: a
// crash never leaves a half-written snapshot under the final name.
func (l *Live) writeSnapshotFile(gen uint64, g *store.Graph) error {
	return store.WriteFileAtomic(l.snapshotPath(gen), l.sync, func(w io.Writer) error {
		return store.WriteSnapshotV2(w, g)
	})
}

const manifestName = "CURRENT"

// HasState reports whether dir already holds an initialized live store
// (an existing CURRENT manifest). Callers use it to decide whether a
// seed graph would be adopted or ignored by Open.
func HasState(dir string) bool {
	_, err := os.Stat(filepath.Join(dir, manifestName))
	return err == nil
}

// readManifest returns the active generation, or os.ErrNotExist for a
// fresh directory.
func readManifest(dir string) (uint64, error) {
	b, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		return 0, err
	}
	s := strings.TrimSpace(string(b))
	genStr, ok := strings.CutPrefix(s, "gen ")
	if !ok {
		return 0, fmt.Errorf("live: malformed manifest %q", s)
	}
	gen, err := strconv.ParseUint(genStr, 10, 64)
	if err != nil || gen == 0 {
		return 0, fmt.Errorf("live: malformed manifest generation %q", genStr)
	}
	return gen, nil
}

// writeManifest atomically points CURRENT at gen, always fsynced. The
// referenced WAL and snapshot must already be durable. The data is
// synced before the rename: without it a crash could durably install a
// CURRENT entry whose blocks never hit the disk, leaving an unopenable
// store after the old generation is deleted.
func writeManifest(dir string, gen uint64) error {
	return store.WriteFileAtomic(filepath.Join(dir, manifestName), true, func(w io.Writer) error {
		_, err := fmt.Fprintf(w, "gen %d\n", gen)
		return err
	})
}

// removeStaleGenerations deletes snapshot/WAL files of generations other
// than the current one — leftovers of a crash between manifest swap and
// cleanup. Best-effort.
func (l *Live) removeStaleGenerations() {
	entries, err := os.ReadDir(l.dir)
	if err != nil {
		return
	}
	keepWAL := filepath.Base(l.walPath(l.gen))
	keepSnap := filepath.Base(l.snapshotPath(l.gen))
	for _, e := range entries {
		name := e.Name()
		if name == keepWAL || name == keepSnap {
			continue
		}
		if strings.HasPrefix(name, "wal-") || strings.HasPrefix(name, "snapshot-") {
			os.Remove(filepath.Join(l.dir, name))
		}
	}
}
