package dict

import (
	"fmt"
	"sync"
	"testing"

	"rdfsum/internal/rdf"
)

// TestShardedFinalizeOrder: terms must come out of Finalize in ascending
// first-occurrence order regardless of the order Observe saw them.
func TestShardedFinalizeOrder(t *testing.T) {
	s := NewSharded()
	// Observe out of order: keys encode the "true" file positions.
	s.Observe(rdf.NewIRI("http://e.org/c"), 30)
	s.Observe(rdf.NewIRI("http://e.org/a"), 10)
	s.Observe(rdf.NewIRI("http://e.org/b"), 20)
	// A repeat occurrence with a smaller key must win.
	s.Observe(rdf.NewIRI("http://e.org/c"), 5)

	d := New()
	remap := s.Finalize(d)
	if d.Len() != 3 {
		t.Fatalf("expected 3 terms, got %d", d.Len())
	}
	wantOrder := []string{"http://e.org/c", "http://e.org/a", "http://e.org/b"}
	for i, want := range wantOrder {
		if got := d.Term(ID(i + 1)).Value; got != want {
			t.Fatalf("id %d: got %q, want %q", i+1, got, want)
		}
	}
	// Remap must agree with the dictionary.
	p := s.Observe(rdf.NewIRI("http://e.org/b"), 99)
	if got := Remap(remap, p); d.Term(got).Value != "http://e.org/b" {
		t.Fatalf("remap of b resolved to %v", d.Term(got))
	}
}

// TestShardedSeededBase: terms already in the base dictionary (the
// pre-interned vocabulary) keep their IDs; new terms are appended after.
func TestShardedSeededBase(t *testing.T) {
	d := New()
	typeID := d.EncodeIRI(rdf.RDFType)

	s := NewSharded()
	s.Observe(rdf.NewIRI("http://e.org/x"), 4)
	s.Observe(rdf.NewIRI(rdf.RDFType), 5) // already in base
	s.Observe(rdf.NewIRI("http://e.org/y"), 6)
	s.Finalize(d)

	if got, _ := d.LookupIRI(rdf.RDFType); got != typeID {
		t.Fatalf("rdf:type moved from id %d to %d", typeID, got)
	}
	if d.Len() != 3 {
		t.Fatalf("expected 3 terms (type, x, y), got %d", d.Len())
	}
	x, _ := d.LookupIRI("http://e.org/x")
	y, _ := d.LookupIRI("http://e.org/y")
	if !(typeID < x && x < y) {
		t.Fatalf("expected type(%d) < x(%d) < y(%d)", typeID, x, y)
	}
}

// TestShardedDistinguishesTermKinds: an IRI, a blank node and literals
// with the same value must intern separately.
func TestShardedDistinguishesTermKinds(t *testing.T) {
	s := NewSharded()
	terms := []rdf.Term{
		rdf.NewIRI("v"),
		rdf.NewBlank("v"),
		rdf.NewLiteral("v"),
		rdf.NewLangLiteral("v", "en"),
		rdf.NewTypedLiteral("v", "http://e.org/dt"),
	}
	for i, tm := range terms {
		s.Observe(tm, uint64(i))
	}
	d := New()
	s.Finalize(d)
	if d.Len() != len(terms) {
		t.Fatalf("expected %d distinct terms, got %d", len(terms), d.Len())
	}
	for i, tm := range terms {
		if got := d.Term(ID(i + 1)); got != tm {
			t.Fatalf("id %d: got %v, want %v", i+1, got, tm)
		}
	}
}

// TestShardedConcurrentObserve hammers Observe from many goroutines and
// checks the final numbering is the key order, not the arrival order.
func TestShardedConcurrentObserve(t *testing.T) {
	const terms = 2000
	s := NewSharded()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Each worker observes every term, at its own shifted keys;
			// the minimum key for term i is always 8i (from worker 0).
			for i := 0; i < terms; i++ {
				s.Observe(rdf.NewIRI(fmt.Sprintf("http://e.org/t%d", i)), uint64(8*i+w))
			}
		}(w)
	}
	wg.Wait()

	d := New()
	s.Finalize(d)
	if d.Len() != terms {
		t.Fatalf("expected %d terms, got %d", terms, d.Len())
	}
	for i := 0; i < terms; i++ {
		want := fmt.Sprintf("http://e.org/t%d", i)
		if got := d.Term(ID(i + 1)).Value; got != want {
			t.Fatalf("id %d: got %q, want %q", i+1, got, want)
		}
	}
}

// TestShardedHashCollisions: distinct terms filed under one hash stay
// distinct (the first in the index, the rest in spill), repeats find
// their own entry, and Finalize numbers them like any other terms.
func TestShardedHashCollisions(t *testing.T) {
	s := NewSharded()
	terms := []rdf.Term{
		rdf.NewIRI("http://e.org/a"),
		rdf.NewBlank("http://e.org/a"),
		rdf.NewLiteral("http://e.org/a"),
		rdf.NewLangLiteral("http://e.org/a", "en"),
	}
	const h = 0xdeadbeef // forced: every term collides
	provs := make([]ProvID, len(terms))
	for i, tm := range terms {
		provs[i] = s.ObserveHash(tm, h, uint64(10*(i+1)))
	}
	for i, tm := range terms {
		if p := s.ObserveHash(tm, h, uint64(i)); p != provs[i] {
			t.Fatalf("repeat of %v got prov %d, first got %d", tm, p, provs[i])
		}
	}
	if s.Len() != len(terms) {
		t.Fatalf("%d terms observed, want %d", s.Len(), len(terms))
	}
	d := New()
	remap := s.Finalize(d)
	for i, tm := range terms {
		if got := d.Term(Remap(remap, provs[i])); got != tm {
			t.Fatalf("term %d resolved to %v, want %v", i, got, tm)
		}
		if id := Remap(remap, provs[i]); id != ID(i+1) {
			t.Fatalf("term %d got id %d, want %d (first-occurrence order)", i, id, i+1)
		}
	}
}
