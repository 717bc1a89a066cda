package ntriples

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"
)

// FuzzParse hammers the N-Triples line parser with arbitrary documents.
// Beyond "never panic", it checks two properties:
//
//   - Differential: ParseSlab, fed the document as one slab (the
//     zero-copy path of the parallel loader), accepts and rejects
//     exactly what ParseString does, yields the identical triples, and
//     fails at the same line with the same message.
//   - Round trip: whatever Parse accepts, Write must serialize back into
//     a document Parse accepts again, yielding the identical triples —
//     the invariant that makes WAL records, HTTP ingest bodies and CLI
//     output mutually interchangeable.
//
// Seeds live in testdata/fuzz/FuzzParse (committed corpus); run the
// fuzzer with `make fuzz` or:
//
//	go test -fuzz=FuzzParse -fuzztime=30s -run='^$' ./internal/ntriples
func FuzzParse(f *testing.F) {
	f.Add("<http://a> <http://p> <http://b> .\n")
	f.Add("# comment\n\n<http://a> <http://p> \"lit\" .\n")
	f.Add("_:b1 <http://p> \"v\"@en .\n")
	f.Add("<http://a> <http://p> \"1\"^^<http://www.w3.org/2001/XMLSchema#integer> .\n")
	f.Add("<http://a> <http://p> \"esc\\n\\t\\\"q\\\"\\\\\" .\n")
	f.Add("<http://\\u00e9> <http://p> <http://\\U0001F600> .\n")
	f.Add("<http://a> <http://p> <http://b>") // missing dot
	f.Add("<http://a> <http://p> .\n")        // missing object
	f.Add("\"subject-literal\" <http://p> <http://b> .\n")
	f.Add("<http://a> <http://p> \"unterminated\n")
	f.Add(strings.Repeat("<http://a> <http://p> <http://b> .\n", 4))

	f.Add("<http://caf\xe9> <http://p> \"caf\xe8\" .\n")

	f.Fuzz(func(t *testing.T, doc string) {
		triples, err := ParseString(doc)
		slabTriples, slabErr := parseOneSlab(doc)
		if err != nil || slabErr != nil {
			var pe, se *ParseError
			if !errors.As(err, &pe) || !errors.As(slabErr, &se) {
				t.Fatalf("parsers disagree: ParseString error %v, ParseSlab error %v", err, slabErr)
			}
			if pe.Line != se.Line || pe.Msg != se.Msg {
				t.Fatalf("parsers reject differently: ParseString %v, ParseSlab %v", pe, se)
			}
			return // rejected input is fine; panics are the failure mode
		}
		if !reflect.DeepEqual(triples, slabTriples) {
			t.Fatalf("ParseSlab yields %v, ParseString %v", slabTriples, triples)
		}
		var buf bytes.Buffer
		if err := Write(&buf, triples); err != nil {
			t.Fatalf("Write failed on parsed triples: %v", err)
		}
		again, err := ParseString(buf.String())
		if err != nil {
			t.Fatalf("round-trip parse failed: %v\nserialized:\n%s", err, buf.String())
		}
		if len(again) != len(triples) {
			t.Fatalf("round-trip changed triple count: %d -> %d", len(triples), len(again))
		}
		for i := range triples {
			if triples[i] != again[i] {
				t.Fatalf("round-trip changed triple %d: %v -> %v", i, triples[i], again[i])
			}
		}
	})
}
