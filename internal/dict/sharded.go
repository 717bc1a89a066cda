package dict

import (
	"cmp"
	"fmt"
	"hash/maphash"
	"math/bits"
	"slices"
	"sync"

	"rdfsum/internal/rdf"
)

// Sharded is a concurrent term interner for the parallel loading pipeline.
//
// Workers call Observe from many goroutines; terms are lock-striped over
// shards keyed by a hash of the term, so contention stays low. Each
// observation carries an occurrence key (the term's position in the input:
// 4·line + role), and each shard keeps the minimum key seen per term.
// Finalize then renumbers every term into the dense 1..MaxID space in
// ascending first-occurrence order — exactly the IDs a sequential
// encode-in-file-order pass would have assigned — so all downstream code
// sees the dictionary it expects, bit-identical to a sequential load.
type Sharded struct {
	shards [numShards]shard
	seed   maphash.Seed
}

const (
	shardBits = 8
	numShards = 1 << shardBits
	// localBits is what remains of a ProvID after the shard tag.
	localBits = 32 - shardBits
	maxLocal  = 1 << localBits
)

// A shard indexes its terms by their 64-bit Hash, so a lookup hashes the
// term's strings once (in Hash) instead of again in every map it meets.
// Distinct terms with equal hashes are rare but legal; all but the first
// of them live in spill.
type shard struct {
	mu    sync.Mutex
	index map[uint64]uint32   // Hash → local index of the first term with it
	spill map[rdf.Term]uint32 // terms whose Hash an earlier term already took
	terms []rdf.Term
	first []uint64 // first[i] = min occurrence key of terms[i]
}

// ProvID is a provisional identifier issued by Observe: the shard number
// in the low bits and the shard-local index in the high bits. It is only
// meaningful to the Sharded that issued it, until Finalize maps it to a
// dense ID.
type ProvID uint32

func provOf(shardIdx, local int) ProvID {
	return ProvID(uint32(local)<<shardBits | uint32(shardIdx))
}

func (p ProvID) split() (shardIdx, local int) {
	return int(p & (numShards - 1)), int(p >> shardBits)
}

// NewSharded returns an empty concurrent interner.
func NewSharded() *Sharded {
	s := &Sharded{seed: maphash.MakeSeed()}
	for i := range s.shards {
		s.shards[i].index = make(map[uint64]uint32)
	}
	return s
}

// Hash returns the hash Observe files t under; its low bits pick the
// shard. Callers that keep their own cache in front of Observe compute it
// once and pass it to ObserveHash.
func (s *Sharded) Hash(t rdf.Term) uint64 {
	h := maphash.String(s.seed, t.Value) ^ uint64(t.Kind)*0x9e3779b97f4a7c15
	if t.Datatype != "" {
		h = bits.RotateLeft64(h, 21) ^ maphash.String(s.seed, t.Datatype)
	}
	if t.Lang != "" {
		h = bits.RotateLeft64(h, 42) ^ maphash.String(s.seed, t.Lang)
	}
	return h
}

// Observe interns t under a provisional ID and records key as an
// occurrence position, keeping the minimum per term. Safe for concurrent
// use.
//
// t may alias a parse buffer: Observe copies a term's strings only when it
// first inserts the term, so the dictionary never keeps a buffer alive and
// repeated terms cost no allocation.
func (s *Sharded) Observe(t rdf.Term, key uint64) ProvID {
	return s.ObserveHash(t, s.Hash(t), key)
}

// ObserveHash is Observe for a term whose Hash the caller already holds.
func (s *Sharded) ObserveHash(t rdf.Term, h, key uint64) ProvID {
	idx := int(h & (numShards - 1))
	sh := &s.shards[idx]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	local, ok, collides := sh.find(t, h)
	if ok {
		if key < sh.first[local] {
			sh.first[local] = key
		}
		return provOf(idx, int(local))
	}
	n := len(sh.terms)
	if n >= maxLocal {
		// ~16M terms hashed into one of 256 shards means a dictionary in
		// the billions — past the library's 700M-term design point.
		panic(fmt.Sprintf("dict: shard %d overflow (%d terms)", idx, n))
	}
	t = t.Clone()
	sh.terms = append(sh.terms, t)
	sh.first = append(sh.first, key)
	if collides {
		if sh.spill == nil {
			sh.spill = make(map[rdf.Term]uint32)
		}
		sh.spill[t] = uint32(n)
	} else {
		sh.index[h] = uint32(n)
	}
	return provOf(idx, n)
}

// find returns the local index of t, filed under hash h. collides reports
// that another term owns h, so t is (or belongs) in spill.
func (sh *shard) find(t rdf.Term, h uint64) (local uint32, ok, collides bool) {
	local, ok = sh.index[h]
	if ok && sh.terms[local] != t {
		local, ok = sh.spill[t]
		return local, ok, true
	}
	return local, ok, false
}

// Len reports the number of distinct terms observed so far. It must not
// race with Observe.
func (s *Sharded) Len() int {
	n := 0
	for i := range s.shards {
		n += len(s.shards[i].terms)
	}
	return n
}

// Finalize renumbers every observed term into base in ascending
// first-occurrence order. Terms already present in base (the pre-interned
// vocabulary) keep their existing IDs. It returns the remap table:
// remap[shard][local] is the dense ID of the term Observe issued that
// provisional position to — use Remap (or index it directly) to translate
// provisional triples.
//
// Finalize must happen after all Observe calls (callers synchronize, e.g.
// with a WaitGroup); the returned table is read-only and safe to share.
// base must be an in-memory dictionary (no mapped layer) that has not
// been shared: Finalize appends to it directly.
func (s *Sharded) Finalize(base *Dict) [][]ID {
	if base.base != nil || base.mu != nil {
		panic("dict: Finalize needs an in-memory dictionary that is not shared")
	}
	type entry struct {
		key  uint64
		prov ProvID
	}
	total := 0
	for i := range s.shards {
		total += len(s.shards[i].terms)
	}
	entries := make([]entry, 0, total)
	remap := make([][]ID, numShards)
	for i := range s.shards {
		sh := &s.shards[i]
		remap[i] = make([]ID, len(sh.terms))
		for local, key := range sh.first {
			entries = append(entries, entry{key: key, prov: provOf(i, local)})
		}
	}
	slices.SortFunc(entries, func(a, b entry) int { return cmp.Compare(a.key, b.key) })
	// Terms base already holds (the pre-interned vocabulary) keep their
	// IDs. Every other term is new to base, so it is appended with one
	// map insert and no lookup, into a dictionary reserved once.
	for i, t := range base.terms {
		h := s.Hash(t)
		shardIdx := int(h & (numShards - 1))
		if local, ok, _ := s.shards[shardIdx].find(t, h); ok {
			remap[shardIdx][local] = ID(i + 1)
		}
	}
	base.reserve(total)
	for _, e := range entries {
		shardIdx, local := e.prov.split()
		if remap[shardIdx][local] == None {
			remap[shardIdx][local] = base.push(s.shards[shardIdx].terms[local])
		}
	}
	return remap
}

// Remap translates a provisional ID through a table returned by Finalize.
func Remap(table [][]ID, p ProvID) ID {
	shardIdx, local := p.split()
	return table[shardIdx][local]
}
