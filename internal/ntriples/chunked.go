package ntriples

import (
	"bytes"
	"io"

	"rdfsum/internal/rdf"
)

// MaxLineBytes is the longest input line the parsers accept. It matches
// the historical bufio.Scanner buffer cap of ParseFunc, so the chunked
// and line-at-a-time paths reject exactly the same inputs.
const MaxLineBytes = 16 * 1024 * 1024

// DefaultSlabBytes is the slab granularity used when a caller passes a
// non-positive size to SplitSlabs.
const DefaultSlabBytes = 1 << 20

// Slab is a contiguous run of whole input lines, cut from the document at
// newline boundaries so that slabs can be parsed independently and in
// parallel. StartLine is the 1-based line number of the first line in
// Data, letting ParseSlab report exact positions from any slab.
// SplitSlabs allocates every slab's Data afresh and never writes to it
// after emitting it.
type Slab struct {
	Index     int    // 0-based slab sequence number
	StartLine int    // 1-based global line number of Data's first line
	Data      []byte // whole lines; ends with '\n' except possibly the last slab
}

// SplitSlabs cuts the document in r into slabs of roughly slabBytes bytes
// (non-positive means DefaultSlabBytes), each ending on a newline, and
// passes them to emit in order. A line longer than MaxLineBytes yields a
// ParseError pointing at it; an emit error stops the split and is
// returned as-is.
func SplitSlabs(r io.Reader, slabBytes int, emit func(Slab) error) error {
	if slabBytes <= 0 {
		slabBytes = DefaultSlabBytes
	}
	line := 1  // global line number of the first byte of carry/next slab
	index := 0 // next slab index
	var carry []byte
	for {
		// Grow geometrically while hunting a long line's newline, so the
		// per-round carry copy stays amortized O(total) instead of
		// quadratic in the line length — but never past MaxLineBytes, so
		// the too-long check below fires exactly at the scanner's limit.
		grow := slabBytes
		if len(carry) > grow {
			grow = len(carry)
		}
		if room := MaxLineBytes - len(carry); grow > room {
			grow = room
		}
		chunk := make([]byte, len(carry), len(carry)+grow)
		copy(chunk, carry)
		n, err := io.ReadFull(r, chunk[len(chunk):cap(chunk)])
		chunk = chunk[:len(chunk)+n]
		atEOF := err == io.EOF || err == io.ErrUnexpectedEOF
		if err != nil && !atEOF {
			return err
		}
		if atEOF {
			// Emit unconditionally: an overlong final line is caught by
			// ParseSlab's per-line check, after any earlier lines of the
			// chunk have been parsed — preserving sequential error order.
			if len(chunk) > 0 {
				if err := emit(Slab{Index: index, StartLine: line, Data: chunk}); err != nil {
					return err
				}
			}
			return nil
		}
		cut := bytes.LastIndexByte(chunk, '\n')
		if cut < 0 {
			// One line spans the whole chunk so far; grow it next round.
			if len(chunk) >= MaxLineBytes {
				return &ParseError{Line: line, Msg: tooLongMsg()}
			}
			carry = chunk
			continue
		}
		if err := emit(Slab{Index: index, StartLine: line, Data: chunk[:cut+1]}); err != nil {
			return err
		}
		index++
		line += bytes.Count(chunk[:cut+1], []byte{'\n'})
		carry = chunk[cut+1:]
	}
}

func tooLongMsg() string {
	return "line too long (limit 16 MiB)"
}

// ParseSlab parses every line of one slab, calling fn for each triple with
// its global 1-based line number. Blank and comment lines are skipped,
// exactly as in ParseFunc. Errors carry the global line number.
//
// Lines are parsed in place and nothing is copied: the term strings of the
// triple passed to fn point into s.Data and are valid only during the
// call. A callee that keeps a term must copy it (rdf.Term.Clone), and
// s.Data must not be modified while ParseSlab runs.
func ParseSlab(s Slab, fn func(lineNo int, t rdf.Triple) error) error {
	data := s.Data
	lineNo := s.StartLine
	for len(data) > 0 {
		var raw []byte
		if i := bytes.IndexByte(data, '\n'); i >= 0 {
			raw, data = data[:i], data[i+1:]
		} else {
			raw, data = data, nil
		}
		if len(raw) >= MaxLineBytes {
			return &ParseError{Line: lineNo, Msg: tooLongMsg()}
		}
		if n := len(raw); n > 0 && raw[n-1] == '\r' {
			raw = raw[:n-1] // match bufio.ScanLines' CR stripping
		}
		t, ok, err := parseLine(bytesString(raw), lineNo, false)
		if err != nil {
			return err
		}
		if ok {
			if err := fn(lineNo, t); err != nil {
				return err
			}
		}
		lineNo++
	}
	return nil
}
