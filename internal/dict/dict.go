// Package dict implements the term dictionary: a bijection between RDF
// terms and dense uint32 identifiers.
//
// The paper's implementation (§6) stores a dictionary table in PostgreSQL
// and "subsequently works only with the integer representation of the input
// RDF graph"; this package is the in-process equivalent. IDs start at 1 so
// that the zero ID can mean "absent".
package dict

import (
	"fmt"
	"slices"
	"sync"

	"rdfsum/internal/rdf"
)

// ID identifies an interned term. The zero ID is never assigned.
type ID uint32

// None is the reserved "no term" identifier.
const None ID = 0

// Dict interns rdf.Terms, assigning each distinct term a dense ID.
// The zero value is not usable; call New.
//
// A Dict is single-goroutine by default — the loaders and summarizers own
// theirs exclusively and pay no synchronization. Share switches one
// dictionary into shared mode, where every method takes an internal
// read-write lock; the live subsystem uses this so snapshot readers can
// decode and look up terms while the single writer interns new ones.
type Dict struct {
	mu    *sync.RWMutex // nil until Share; guards terms and index when set
	base  *Mapped       // optional read-only layer holding IDs 1..baseLen
	terms []rdf.Term    // terms[i] is the term with ID baseLen+i+1
	index map[rdf.Term]ID
}

// New returns an empty dictionary.
func New() *Dict {
	return &Dict{index: make(map[rdf.Term]ID)}
}

// WithBase returns a dictionary layered over a mapped read-only base:
// IDs 1..base.Len() resolve through the base (zero-copy, decoded on
// demand), and newly interned terms get IDs from base.Len()+1 up. Base
// hits found via Encode are memoized into the in-memory index so each
// binary search over the mapped pages is paid at most once per term.
func WithBase(m *Mapped) *Dict {
	return &Dict{base: m, index: make(map[rdf.Term]ID)}
}

// WithCapacity returns an empty dictionary pre-sized for n terms.
func WithCapacity(n int) *Dict {
	return &Dict{
		terms: make([]rdf.Term, 0, n),
		index: make(map[rdf.Term]ID, n),
	}
}

// reserve makes room for n more terms, so that interning them grows
// neither the term table nor the index. d must not be shared.
func (d *Dict) reserve(n int) {
	if cap(d.terms)-len(d.terms) < n {
		d.terms = slices.Grow(d.terms, n)
	}
	index := make(map[rdf.Term]ID, len(d.index)+n)
	for t, id := range d.index {
		index[t] = id
	}
	d.index = index
}

// Share switches d into shared mode: from now on every method is safe for
// concurrent use by multiple goroutines. The switch itself must happen
// before the dictionary is shared (it is not itself synchronized), and
// cannot be undone.
func (d *Dict) Share() {
	if d.mu == nil {
		d.mu = new(sync.RWMutex)
	}
}

// Encode interns t and returns its ID, assigning a fresh one on first
// sight.
func (d *Dict) Encode(t rdf.Term) ID {
	if d.mu != nil {
		d.mu.Lock()
		defer d.mu.Unlock()
	}
	if id, ok := d.index[t]; ok {
		return id
	}
	if d.base != nil {
		if id, ok := d.base.Lookup(t); ok {
			d.index[t] = id
			return id
		}
	}
	return d.push(t)
}

// push appends t, which d must not hold yet, and returns its new ID.
func (d *Dict) push(t rdf.Term) ID {
	d.terms = append(d.terms, t)
	id := ID(d.baseLen() + len(d.terms))
	d.index[t] = id
	return id
}

// baseLen returns the number of IDs owned by the mapped base layer.
func (d *Dict) baseLen() int {
	if d.base == nil {
		return 0
	}
	return d.base.Len()
}

// EncodeIRI interns an IRI given as a string.
func (d *Dict) EncodeIRI(iri string) ID { return d.Encode(rdf.NewIRI(iri)) }

// Lookup returns the ID of t without interning it.
func (d *Dict) Lookup(t rdf.Term) (ID, bool) {
	if d.mu != nil {
		d.mu.RLock()
		defer d.mu.RUnlock()
	}
	if id, ok := d.index[t]; ok {
		return id, true
	}
	if d.base != nil {
		// No memoization here: Lookup holds only the read lock.
		return d.base.Lookup(t)
	}
	return None, false
}

// LookupIRI returns the ID of an IRI without interning it.
func (d *Dict) LookupIRI(iri string) (ID, bool) { return d.Lookup(rdf.NewIRI(iri)) }

// Term returns the term interned under id. It panics on an unknown or zero
// id — callers only hold IDs this dictionary issued.
func (d *Dict) Term(id ID) rdf.Term {
	if d.mu != nil {
		d.mu.RLock()
		defer d.mu.RUnlock()
	}
	bl := d.baseLen()
	if int(id) <= bl {
		if id == None {
			panic("dict: unknown id 0")
		}
		return d.base.Term(id)
	}
	if id == None || int(id) > bl+len(d.terms) {
		panic(fmt.Sprintf("dict: unknown id %d (dictionary holds %d terms)", id, bl+len(d.terms)))
	}
	return d.terms[int(id)-bl-1]
}

// Len reports the number of interned terms.
func (d *Dict) Len() int {
	if d.mu != nil {
		d.mu.RLock()
		defer d.mu.RUnlock()
	}
	return d.baseLen() + len(d.terms)
}

// MaxID returns the highest assigned ID (equal to Len, since IDs are
// dense starting at 1).
func (d *Dict) MaxID() ID { return ID(d.Len()) }
