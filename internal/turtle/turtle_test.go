package turtle

import (
	"errors"
	"reflect"
	"testing"

	"rdfsum/internal/ntriples"
	"rdfsum/internal/rdf"
)

func mustParse(t *testing.T, s string) []rdf.Triple {
	t.Helper()
	ts, err := ParseString(s)
	if err != nil {
		t.Fatalf("ParseString(%q): %v", s, err)
	}
	return ts
}

func TestBasicTriples(t *testing.T) {
	ts := mustParse(t, `
@prefix ex: <http://ex.org/> .
# a comment
ex:s ex:p ex:o .
<http://ex.org/s2> a ex:Book .
_:b1 ex:p "lit" .
`)
	want := []rdf.Triple{
		{S: rdf.NewIRI("http://ex.org/s"), P: rdf.NewIRI("http://ex.org/p"), O: rdf.NewIRI("http://ex.org/o")},
		{S: rdf.NewIRI("http://ex.org/s2"), P: rdf.Type(), O: rdf.NewIRI("http://ex.org/Book")},
		{S: rdf.NewBlank("b1"), P: rdf.NewIRI("http://ex.org/p"), O: rdf.NewLiteral("lit")},
	}
	if !reflect.DeepEqual(ts, want) {
		t.Errorf("parsed %v, want %v", ts, want)
	}
}

func TestPredicateAndObjectLists(t *testing.T) {
	ts := mustParse(t, `
@prefix ex: <http://ex.org/> .
ex:s ex:p ex:o1 , ex:o2 ;
     ex:q "a" , "b" ;
     a ex:Thing .
`)
	if len(ts) != 5 {
		t.Fatalf("parsed %d triples, want 5: %v", len(ts), ts)
	}
	for _, tr := range ts[:4] {
		if tr.S != rdf.NewIRI("http://ex.org/s") {
			t.Errorf("subject not shared across ';' list: %v", tr)
		}
	}
	// Dangling semicolon is legal.
	ts = mustParse(t, "@prefix ex: <http://ex.org/> .\nex:s ex:p ex:o ; .")
	if len(ts) != 1 {
		t.Errorf("dangling ';': %d triples, want 1", len(ts))
	}
}

func TestLiteralForms(t *testing.T) {
	ts := mustParse(t, `
@prefix ex: <http://ex.org/> .
@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .
ex:s ex:a "plain" .
ex:s ex:b "tagged"@en-GB .
ex:s ex:c "typed"^^xsd:string .
ex:s ex:d "typed2"^^<http://ex.org/dt> .
ex:s ex:e 42 .
ex:s ex:f -3.14 .
ex:s ex:g 1.0e6 .
ex:s ex:h true .
ex:s ex:i false .
ex:s ex:j """long
"quoted" string""" .
ex:s ex:k "esc\t\"é"@fr .
`)
	want := []rdf.Term{
		rdf.NewLiteral("plain"),
		rdf.NewLangLiteral("tagged", "en-GB"),
		rdf.NewTypedLiteral("typed", rdf.XSDString),
		rdf.NewTypedLiteral("typed2", "http://ex.org/dt"),
		rdf.NewTypedLiteral("42", rdf.XSDInteger),
		rdf.NewTypedLiteral("-3.14", rdf.XSDDecimal),
		rdf.NewTypedLiteral("1.0e6", rdf.XSDDouble),
		rdf.NewTypedLiteral("true", rdf.XSDBoolean),
		rdf.NewTypedLiteral("false", rdf.XSDBoolean),
		rdf.NewLiteral("long\n\"quoted\" string"),
		rdf.NewLangLiteral("esc\t\"é", "fr"),
	}
	if len(ts) != len(want) {
		t.Fatalf("parsed %d triples, want %d", len(ts), len(want))
	}
	for i, w := range want {
		if ts[i].O != w {
			t.Errorf("object %d = %#v, want %#v", i, ts[i].O, w)
		}
	}
}

func TestBaseAndSparqlStyleDirectives(t *testing.T) {
	ts := mustParse(t, `
BASE <http://base.org/>
PREFIX ex: <http://ex.org/>
<rel> ex:p <http://abs.org/x> .
`)
	if ts[0].S != rdf.NewIRI("http://base.org/rel") {
		t.Errorf("base resolution: %v", ts[0].S)
	}
	if ts[0].O != rdf.NewIRI("http://abs.org/x") {
		t.Errorf("absolute IRI must not be re-based: %v", ts[0].O)
	}
}

func TestDottedLocalNames(t *testing.T) {
	ts := mustParse(t, "@prefix ex: <http://ex.org/> .\nex:a.b ex:p ex:c .")
	if ts[0].S != rdf.NewIRI("http://ex.org/a.b") {
		t.Errorf("inner dot mishandled: %v", ts[0].S)
	}
}

func TestErrors(t *testing.T) {
	bad := []string{
		"ex:s ex:p ex:o .", // undeclared prefix
		"@prefix ex: <http://x/> .\nex:s ex:p [ ex:q 1 ] .", // anon blank
		"@prefix ex: <http://x/> .\nex:s ex:p ( 1 2 ) .",    // collection
		"@prefix ex: <http://x/> .\nex:s ex:p 'single' .",   // single quotes
		"@prefix ex: <http://x/> .\nex:s ex:p \"open .",     // unterminated
		"@prefix ex: <http://x/> \nex:s ex:p ex:o .",        // @prefix missing dot... (SPARQL form ok, @ form needs '.')
		"@prefix ex: <http://x/> .\nex:s ex:p ex:o ,",       // dangling comma
		"@prefix ex: <http://x/> .\n\"lit\" ex:p ex:o .",    // literal subject
		"@prefix ex: <http://x/> .\nex:s ex:p ex:o ex:x .",  // missing separator
	}
	for _, s := range bad {
		if _, err := ParseString(s); err == nil {
			t.Errorf("ParseString(%q) succeeded, want error", s)
		} else {
			var pe *ParseError
			if !errors.As(err, &pe) {
				t.Errorf("ParseString(%q): error %T, want *ParseError", s, err)
			}
		}
	}
}

func TestErrorPositions(t *testing.T) {
	_, err := ParseString("@prefix ex: <http://x/> .\nex:s ex:p zzz .")
	var pe *ParseError
	if !errors.As(err, &pe) {
		t.Fatalf("want *ParseError, got %v", err)
	}
	if pe.Line != 2 {
		t.Errorf("error line = %d, want 2", pe.Line)
	}
}

// TestAgreesWithNTriples: any N-Triples document is also valid Turtle with
// identical meaning (N-Triples ⊂ Turtle), modulo our subset's blank-label
// alphabet.
func TestAgreesWithNTriples(t *testing.T) {
	doc := `<http://x/s> <http://x/p> <http://x/o> .
<http://x/s> <http://x/q> "lit"@en .
_:b0 <http://x/p> "3"^^<http://www.w3.org/2001/XMLSchema#integer> .
`
	nt, err := ntriples.ParseString(doc)
	if err != nil {
		t.Fatal(err)
	}
	ttl, err := ParseString(doc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(nt, ttl) {
		t.Errorf("N-Triples and Turtle disagree:\nnt:  %v\nttl: %v", nt, ttl)
	}
}

// TestRejectsInvalidUTF8: a byte sequence that is not UTF-8 inside a term
// is a ParseError at that byte's line and column, matching
// rdf.ErrInvalidUTF8. Decoding such bytes to U+FFFD used to merge
// ex:caf\xe9 and ex:caf\xe8 into one node.
func TestRejectsInvalidUTF8(t *testing.T) {
	const head = "@prefix ex: <http://ex.org/> .\n"
	for _, tc := range []struct {
		name, doc string
		line, col int
	}{
		{"iri", "<http://ex.org/caf\xe9> ex:p ex:o .", 2, 19},
		{"datatype", "ex:s ex:p \"1\"^^<http://ex.org/t\xff> .", 2, 32},
		{"string", "ex:s ex:p \"caf\xe9\" .", 2, 15},
		{"string-after-escape", "ex:s ex:p \"\\n\xc3\" .", 2, 14},
		{"long-string", "ex:s ex:p \"\"\"a\nb\xe9\"\"\" .", 3, 2},
		{"lang", "ex:s ex:p \"x\"@en\xe9 .", 2, 17},
		{"blank", "_:caf\xe9 ex:p ex:o .", 2, 6},
		{"prefixed-name", "ex:caf\xe9 ex:p ex:o .", 2, 7},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseString(head + tc.doc + "\n")
			var pe *ParseError
			if !errors.As(err, &pe) {
				t.Fatalf("expected *ParseError, got %v", err)
			}
			if pe.Line != tc.line || pe.Col != tc.col || !errors.Is(err, rdf.ErrInvalidUTF8) {
				t.Fatalf("got %v, want invalid UTF-8 at %d:%d", err, tc.line, tc.col)
			}
		})
	}
	ts := mustParse(t, head+"ex:café ex:p \"naïve\"@fr, \"\"\"ü\"\"\" .\n_:bé ex:p <http://ex.org/ö> .\n")
	if len(ts) != 3 || ts[0].S.Value != "http://ex.org/café" || ts[1].O.Value != "ü" || ts[2].O.Value != "http://ex.org/ö" {
		t.Fatalf("non-ASCII terms parsed as %v", ts)
	}
}
