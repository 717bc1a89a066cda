// Package rdf defines the core RDF data model used throughout rdfsum:
// terms (IRIs, blank nodes, literals), triples, the RDF/RDFS vocabulary,
// and the well-behavedness checks assumed by the summarization paper.
//
// Terms are small comparable value types so they can be used directly as
// map keys (the dictionary in internal/dict relies on this).
package rdf

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"unicode/utf8"
)

// ErrInvalidUTF8 classifies parse errors caused by bytes that are not
// valid UTF-8 inside a term. RDF text is Unicode: decoding such bytes as
// U+FFFD would silently merge distinct terms, so the parsers reject them.
// Match with errors.Is.
var ErrInvalidUTF8 = errors.New("invalid UTF-8")

// InvalidUTF8At returns the byte offset of the first invalid UTF-8
// sequence in s, or -1 when s is valid UTF-8.
func InvalidUTF8At(s string) int {
	for i := 0; i < len(s); {
		if s[i] < utf8.RuneSelf {
			i++
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			return i
		}
		i += size
	}
	return -1
}

// TermKind discriminates the three kinds of RDF terms.
type TermKind uint8

const (
	// Invalid is the zero TermKind; it never appears in a well-formed term.
	Invalid TermKind = iota
	// IRI is an absolute or relative IRI reference.
	IRI
	// Blank is a blank node, identified by its local label.
	Blank
	// Literal is an RDF literal: a lexical form with an optional datatype
	// IRI or language tag.
	Literal
)

// String returns a human-readable name for the kind.
func (k TermKind) String() string {
	switch k {
	case IRI:
		return "iri"
	case Blank:
		return "blank"
	case Literal:
		return "literal"
	default:
		return "invalid"
	}
}

// Term is a single RDF term. The zero Term is invalid.
//
// For IRIs, Value holds the IRI string. For blank nodes, Value holds the
// label without the "_:" prefix. For literals, Value holds the lexical
// form, Datatype the datatype IRI (empty for plain or language-tagged
// literals), and Lang the language tag (empty unless language-tagged).
type Term struct {
	Kind     TermKind
	Value    string
	Datatype string
	Lang     string
}

// NewIRI returns an IRI term.
func NewIRI(iri string) Term { return Term{Kind: IRI, Value: iri} }

// NewBlank returns a blank node term with the given label (no "_:" prefix).
func NewBlank(label string) Term { return Term{Kind: Blank, Value: label} }

// NewLiteral returns a plain literal term.
func NewLiteral(lexical string) Term { return Term{Kind: Literal, Value: lexical} }

// NewLangLiteral returns a language-tagged literal term.
func NewLangLiteral(lexical, lang string) Term {
	return Term{Kind: Literal, Value: lexical, Lang: lang}
}

// NewTypedLiteral returns a datatyped literal term.
func NewTypedLiteral(lexical, datatype string) Term {
	return Term{Kind: Literal, Value: lexical, Datatype: datatype}
}

// Clone returns t with its strings copied, so that it no longer shares
// memory with the buffer it was parsed from.
func (t Term) Clone() Term {
	return Term{
		Kind:     t.Kind,
		Value:    strings.Clone(t.Value),
		Datatype: strings.Clone(t.Datatype),
		Lang:     strings.Clone(t.Lang),
	}
}

// IsIRI reports whether the term is an IRI.
func (t Term) IsIRI() bool { return t.Kind == IRI }

// IsBlank reports whether the term is a blank node.
func (t Term) IsBlank() bool { return t.Kind == Blank }

// IsLiteral reports whether the term is a literal.
func (t Term) IsLiteral() bool { return t.Kind == Literal }

// IsZero reports whether the term is the zero (invalid) term.
func (t Term) IsZero() bool { return t.Kind == Invalid }

// String renders the term in N-Triples syntax.
func (t Term) String() string {
	var b strings.Builder
	t.writeTo(&b)
	return b.String()
}

func (t Term) writeTo(b *strings.Builder) {
	switch t.Kind {
	case IRI:
		b.WriteByte('<')
		escapeIRI(b, t.Value)
		b.WriteByte('>')
	case Blank:
		b.WriteString("_:")
		b.WriteString(t.Value)
	case Literal:
		b.WriteByte('"')
		escapeLiteral(b, t.Value)
		b.WriteByte('"')
		switch {
		case t.Lang != "":
			b.WriteByte('@')
			b.WriteString(t.Lang)
		case t.Datatype != "":
			b.WriteString("^^<")
			escapeIRI(b, t.Datatype)
			b.WriteByte('>')
		}
	default:
		b.WriteString("<invalid>")
	}
}

// escapeLiteral writes s escaping the characters N-Triples requires inside
// string literals.
func escapeLiteral(b *strings.Builder, s string) {
	for _, r := range s {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		case '\r':
			b.WriteString(`\r`)
		case '\t':
			b.WriteString(`\t`)
		default:
			b.WriteRune(r)
		}
	}
}

// escapeIRI writes an IRI, escaping the characters disallowed between
// angle brackets: controls, space and a few punctuation marks.
func escapeIRI(b *strings.Builder, s string) {
	for _, r := range s {
		switch r {
		case '<', '>', '"', '{', '}', '|', '^', '`', '\\':
		default:
			if r > ' ' {
				b.WriteRune(r)
				continue
			}
		}
		fmt.Fprintf(b, "\\u%04X", r)
	}
}

// Compare orders terms: first by kind (IRI < Blank < Literal), then by
// value, datatype and language. It returns -1, 0, or +1.
func (t Term) Compare(u Term) int {
	if t.Kind != u.Kind {
		if t.Kind < u.Kind {
			return -1
		}
		return 1
	}
	if c := strings.Compare(t.Value, u.Value); c != 0 {
		return c
	}
	if c := strings.Compare(t.Datatype, u.Datatype); c != 0 {
		return c
	}
	return strings.Compare(t.Lang, u.Lang)
}

// Triple is a single RDF statement: subject, property, object.
type Triple struct {
	S, P, O Term
}

// NewTriple assembles a triple.
func NewTriple(s, p, o Term) Triple { return Triple{S: s, P: p, O: o} }

// String renders the triple as an N-Triples statement (without newline).
func (t Triple) String() string {
	var b strings.Builder
	t.S.writeTo(&b)
	b.WriteByte(' ')
	t.P.writeTo(&b)
	b.WriteByte(' ')
	t.O.writeTo(&b)
	b.WriteString(" .")
	return b.String()
}

// Compare orders triples lexicographically by subject, property, object.
func (t Triple) Compare(u Triple) int {
	if c := t.S.Compare(u.S); c != 0 {
		return c
	}
	if c := t.P.Compare(u.P); c != 0 {
		return c
	}
	return t.O.Compare(u.O)
}

// Validate checks the structural well-formedness rules of RDF:
// the subject must be an IRI or blank node, the property an IRI, and the
// object any term. It returns a descriptive error on violation.
func (t Triple) Validate() error {
	switch t.S.Kind {
	case IRI, Blank:
	default:
		return fmt.Errorf("rdf: triple subject must be an IRI or blank node, got %s", t.S.Kind)
	}
	if t.P.Kind != IRI {
		return fmt.Errorf("rdf: triple property must be an IRI, got %s", t.P.Kind)
	}
	if t.O.Kind == Invalid {
		return fmt.Errorf("rdf: triple object is invalid")
	}
	return nil
}

// SortTriples sorts a slice of triples in place in S,P,O order.
func SortTriples(ts []Triple) {
	sort.Slice(ts, func(i, j int) bool { return ts[i].Compare(ts[j]) < 0 })
}

// DedupTriples sorts ts and removes duplicates, returning the shortened
// slice. The input slice is modified.
func DedupTriples(ts []Triple) []Triple {
	SortTriples(ts)
	out := ts[:0]
	for i, t := range ts {
		if i == 0 || t.Compare(ts[i-1]) != 0 {
			out = append(out, t)
		}
	}
	return out
}
