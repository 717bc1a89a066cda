package live

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"sync"
	"testing"
	"testing/quick"

	"rdfsum/internal/core"
	"rdfsum/internal/dict"
	"rdfsum/internal/rdf"
	"rdfsum/internal/store"
)

// scanIndex collects a full wildcard scan of an index (SPO order).
func scanIndex(ix *store.Index) []store.Triple {
	var out []store.Triple
	ix.ForEach(dict.None, dict.None, dict.None, func(t store.Triple) bool {
		out = append(out, t)
		return true
	})
	return out
}

// freshIndexOver builds a from-scratch single-run index over exactly the
// given string-level triples, encoded through the same dictionary as the
// live store — so iteration sequences are comparable triple-for-triple.
func freshIndexOver(d *dict.Dict, triples []rdf.Triple) *store.Index {
	g := store.NewGraphWithDict(d)
	for _, t := range triples {
		g.Add(t)
	}
	return store.NewIndex(g)
}

// removeAll drops every copy of dead from ts.
func removeAll(ts []rdf.Triple, dead []rdf.Triple) []rdf.Triple {
	set := make(map[rdf.Triple]bool, len(dead))
	for _, t := range dead {
		set[t] = true
	}
	out := ts[:0:0]
	for _, t := range ts {
		if !set[t] {
			out = append(out, t)
		}
	}
	return out
}

func TestLiveDeleteBasics(t *testing.T) {
	l := New(nil)
	defer l.Close()
	batch := mkBatch(0, 40)
	if err := l.AddBatch(batch); err != nil {
		t.Fatal(err)
	}
	dead := batch[:5]
	n, err := l.DeleteBatch(dead)
	if err != nil {
		t.Fatal(err)
	}
	if n != 5 {
		t.Fatalf("DeleteBatch removed %d copies, want 5", n)
	}
	snap := l.Snapshot()
	surviving := removeAll(batch, dead)
	if !reflect.DeepEqual(canonical(snap.Graph), canonical(store.FromTriples(surviving))) {
		t.Fatal("graph after delete diverges from the surviving triples")
	}
	if snap.Index.Len() != snap.Graph.NumEdges() {
		t.Fatalf("index holds %d triples, graph %d", snap.Index.Len(), snap.Graph.NumEdges())
	}
	st := l.Stats()
	if st.Deleted != 5 || st.Triples != uint64(len(surviving)) {
		t.Fatalf("stats after delete: %+v", st)
	}
	// Deleting the same triples again is a no-op.
	if n, err := l.DeleteBatch(dead); err != nil || n != 0 {
		t.Fatalf("re-delete removed %d copies, err %v", n, err)
	}
	// Re-adding a deleted triple makes it visible again (tombstones only
	// suppress strictly older copies).
	if err := l.Add(dead[0]); err != nil {
		t.Fatal(err)
	}
	re := l.Snapshot()
	if !reflect.DeepEqual(canonical(re.Graph),
		canonical(store.FromTriples(append(append([]rdf.Triple(nil), surviving...), dead[0])))) {
		t.Fatal("re-added triple is not visible")
	}
	if got := scanIndex(re.Index); !reflect.DeepEqual(got, scanIndex(freshIndexOver(re.Graph.Dict(), append(append([]rdf.Triple(nil), surviving...), dead[0])))) {
		t.Fatalf("index scan after re-add diverges from a from-scratch index")
	}
}

// TestLiveDeleteInterleavingOracle is the live half of the tiered-index
// property test: random interleavings of add batches, delete batches and
// compactions on a durable store maintaining all five kinds must stay
// bit-identical — graph, index iteration, every summary — to a batch load
// of the surviving triples; snapshots held mid-stream keep their exact
// contents across later deletes and compactions; and a close/reopen (WAL
// replay) reproduces the same state.
func TestLiveDeleteInterleavingOracle(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 0x11fe))
		dir := t.TempDir()
		l, err := Open(dir, Options{NoSync: true, Maintain: core.Kinds, IndexFanout: 2 + int(seed%4)})
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()

		pool := mkBatch(0, 60)
		var oracle []rdf.Triple
		next := 0

		type held struct {
			snap      *Snapshot
			canon     []string
			indexScan []store.Triple
		}
		var holds []held

		ops := 12 + rng.IntN(10)
		for i := 0; i < ops; i++ {
			switch {
			case rng.IntN(6) == 0:
				if err := l.Compact(); err != nil {
					t.Fatal(err)
				}
				if st := l.Stats(); st.IndexRuns != 1 || st.IndexTombs != 0 {
					t.Logf("seed %d: compacted store has %d runs, %d tombstones", seed, st.IndexRuns, st.IndexTombs)
					return false
				}
			case rng.IntN(3) == 0 && len(oracle) > 0:
				k := 1 + rng.IntN(4)
				dead := make([]rdf.Triple, 0, k)
				for j := 0; j < k; j++ {
					dead = append(dead, pool[rng.IntN(next)])
				}
				if _, err := l.DeleteBatch(dead); err != nil {
					t.Fatal(err)
				}
				oracle = removeAll(oracle, dead)
			default:
				k := 1 + rng.IntN(8)
				var batch []rdf.Triple
				for j := 0; j < k; j++ {
					// Mostly fresh triples, sometimes re-adds.
					if next < len(pool) && rng.IntN(4) != 0 {
						batch = append(batch, pool[next])
						next++
					} else if next > 0 {
						batch = append(batch, pool[rng.IntN(next)])
					}
				}
				if err := l.AddBatch(batch); err != nil {
					t.Fatal(err)
				}
				oracle = append(oracle, batch...)
			}

			snap := l.Snapshot()
			if !reflect.DeepEqual(canonical(snap.Graph), canonical(store.FromTriples(oracle))) {
				t.Logf("seed %d: graph diverges after op %d", seed, i)
				return false
			}
			fresh := freshIndexOver(snap.Graph.Dict(), oracle)
			if snap.Index.Len() != fresh.Len() || !reflect.DeepEqual(scanIndex(snap.Index), scanIndex(fresh)) {
				t.Logf("seed %d: index iteration diverges after op %d", seed, i)
				return false
			}
			if rng.IntN(4) == 0 {
				holds = append(holds, held{snap: snap, canon: canonical(snap.Graph), indexScan: scanIndex(snap.Index)})
			}
		}

		// All five summaries match a batch load of the survivors.
		batchGraph := store.FromTriples(oracle)
		for _, kind := range core.Kinds {
			s, _, err := l.Summary(kind, 0)
			if err != nil {
				t.Fatal(err)
			}
			batch := core.MustSummarize(batchGraph, kind)
			if !reflect.DeepEqual(canonical(s.Graph), canonical(batch.Graph)) {
				t.Logf("seed %d: %v summary diverges from batch over survivors", seed, kind)
				return false
			}
		}

		// Held snapshots were not disturbed by later deletes/compactions.
		for si, h := range holds {
			if !reflect.DeepEqual(canonical(h.snap.Graph), h.canon) ||
				!reflect.DeepEqual(scanIndex(h.snap.Index), h.indexScan) {
				t.Logf("seed %d: held snapshot %d was disturbed by later operations", seed, si)
				return false
			}
		}

		// WAL replay round-trips the deletions.
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		re, err := Open(dir, Options{NoSync: true, Maintain: core.Kinds})
		if err != nil {
			t.Fatal(err)
		}
		defer re.Close()
		if !reflect.DeepEqual(canonical(re.Snapshot().Graph), canonical(batchGraph)) {
			t.Logf("seed %d: reopened store diverges from survivors", seed)
			return false
		}
		for _, kind := range core.Kinds {
			s, _, err := re.Summary(kind, 0)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(canonical(s.Graph), canonical(core.MustSummarize(batchGraph, kind).Graph)) {
				t.Logf("seed %d: %v summary after replay diverges", seed, kind)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Error(err)
	}
}

// TestLiveSnapshotAcrossCompactStress is the -race regression case for
// snapshot validity across generations: readers hold epoch snapshots and
// keep iterating them (full scans and pattern scans) while the writer
// interleaves adds, deletes and Compact calls that swap index generations
// under them. Each reader verifies its snapshot's contents never change.
// Run by `make stress`.
func TestLiveSnapshotAcrossCompactStress(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{NoSync: true, IndexFanout: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.AddBatch(mkBatch(0, 200)); err != nil {
		t.Fatal(err)
	}

	const readers = 4
	rounds := 40
	if testing.Short() {
		rounds = 10
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan error, readers)

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := l.Snapshot()
				want := snap.Index.Len()
				if got := len(scanIndex(snap.Index)); got != want {
					errs <- fmt.Errorf("reader %d: scan of held epoch %d yielded %d triples, Len says %d", r, snap.Epoch, got, want)
					return
				}
				// Re-scan the same snapshot after yielding to the writer:
				// a Compact or delete in between must not disturb it.
				if got := len(scanIndex(snap.Index)); got != want {
					errs <- fmt.Errorf("reader %d: held epoch %d changed under compaction: %d != %d", r, snap.Epoch, got, want)
					return
				}
			}
		}(r)
	}

	rng := rand.New(rand.NewPCG(42, 7))
	for i := 0; i < rounds; i++ {
		batch := mkBatch(1000+i*50, 30)
		if err := l.AddBatch(batch); err != nil {
			t.Fatal(err)
		}
		if _, err := l.DeleteBatch(batch[:rng.IntN(10)]); err != nil {
			t.Fatal(err)
		}
		if i%5 == 0 {
			if err := l.Compact(); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
