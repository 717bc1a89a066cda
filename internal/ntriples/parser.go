// Package ntriples implements a reader and writer for the W3C N-Triples
// format, the serialization the paper's loader consumes ("currently, only
// files in n-triples format are supported", §6).
//
// The parser is line-oriented and strict about term syntax but tolerant of
// surrounding whitespace, blank lines and '#' comments. It supports the
// full escape repertoire of the spec (\t \b \n \r \f \" \' \\ \uXXXX
// \UXXXXXXXX) in both literals and IRIs. Terms must be valid UTF-8.
//
// Terms are scanned as byte spans of the input line: a term without
// escapes is a substring of the line and costs no per-rune work. Only
// escaped or malformed terms are decoded rune by rune.
package ntriples

import (
	"bufio"
	"fmt"
	"io"
	"strings"
	"unicode/utf8"
	"unsafe"

	"rdfsum/internal/rdf"
)

// ParseError describes a syntax error at a specific line of the input.
type ParseError struct {
	Line int
	Msg  string
	Err  error // classifying cause (rdf.ErrInvalidUTF8), or nil
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("ntriples: line %d: %s", e.Line, e.Msg)
}

// Unwrap returns the classifying cause, if any.
func (e *ParseError) Unwrap() error { return e.Err }

// Parse reads every triple from r. It fails fast on the first syntax error.
func Parse(r io.Reader) ([]rdf.Triple, error) {
	var out []rdf.Triple
	err := ParseFunc(r, func(t rdf.Triple) error {
		out = append(out, t)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// ParseString parses an N-Triples document held in a string.
func ParseString(s string) ([]rdf.Triple, error) {
	return Parse(strings.NewReader(s))
}

// ParseFunc streams triples from r to fn, stopping at the first syntax
// error or the first error returned by fn. This is the loading path used
// for large files: no intermediate slice is built. The terms passed to fn
// own their memory: each line is parsed in the scanner's buffer and every
// term string is copied out once, so a line costs no allocation of its
// own.
func ParseFunc(r io.Reader, fn func(rdf.Triple) error) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), MaxLineBytes)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		t, ok, err := parseLine(bytesString(sc.Bytes()), lineNo, true)
		if err != nil {
			return err
		}
		if !ok {
			continue
		}
		if err := fn(t); err != nil {
			return err
		}
	}
	if err := sc.Err(); err != nil {
		if err == bufio.ErrTooLong {
			// The scanner stalls on the line after the last one it
			// delivered; report it instead of the opaque scanner error.
			return &ParseError{Line: lineNo + 1, Msg: tooLongMsg()}
		}
		return fmt.Errorf("ntriples: read: %w", err)
	}
	return nil
}

// bytesString views b as a string without copying. The caller must not
// modify b while the string, or any substring of it, is in use.
func bytesString(b []byte) string {
	return unsafe.String(unsafe.SliceData(b), len(b))
}

// parseLine parses a single line. ok is false for blank and comment lines.
// With copyTerms false the terms alias line; with copyTerms true each term
// string is a fresh copy.
func parseLine(line string, lineNo int, copyTerms bool) (t rdf.Triple, ok bool, err error) {
	p := &lineParser{in: line, line: lineNo, copyTerms: copyTerms}
	p.skipWS()
	if p.eof() || p.peek() == '#' {
		return rdf.Triple{}, false, nil
	}
	s, err := p.term()
	if err != nil {
		return rdf.Triple{}, false, err
	}
	p.skipWS()
	pr, err := p.term()
	if err != nil {
		return rdf.Triple{}, false, err
	}
	p.skipWS()
	o, err := p.term()
	if err != nil {
		return rdf.Triple{}, false, err
	}
	p.skipWS()
	if p.eof() || p.peek() != '.' {
		return rdf.Triple{}, false, p.errorf("expected '.' terminating the statement")
	}
	p.pos++
	p.skipWS()
	if !p.eof() && p.peek() != '#' {
		return rdf.Triple{}, false, p.errorf("unexpected trailing content %q", p.in[p.pos:])
	}
	t = rdf.Triple{S: s, P: pr, O: o}
	if err := t.Validate(); err != nil {
		return rdf.Triple{}, false, p.errorf("%v", err)
	}
	return t, true, nil
}

type lineParser struct {
	in        string
	pos       int
	line      int
	copyTerms bool // copy term spans out of in (in is a reused buffer)
}

func (p *lineParser) errorf(format string, args ...any) error {
	return &ParseError{Line: p.line, Msg: fmt.Sprintf(format, args...)}
}

// invalidUTF8 reports the invalid UTF-8 byte at offset i of the line.
func (p *lineParser) invalidUTF8(i int) error {
	return &ParseError{
		Line: p.line,
		Msg:  fmt.Sprintf("invalid UTF-8 byte 0x%02x at column %d", p.in[i], i+1),
		Err:  rdf.ErrInvalidUTF8,
	}
}

// span returns in[i:j] as a term string.
func (p *lineParser) span(i, j int) string {
	if p.copyTerms {
		return strings.Clone(p.in[i:j])
	}
	return p.in[i:j]
}

// plainEnd returns the index of the first delim at or after i when the
// bytes before it are the term verbatim: no backslash, no blank inside an
// IRI, valid UTF-8. Otherwise it returns -1, and the caller decodes the
// term rune by rune, which also reports every error.
func plainEnd(s string, i int, delim byte) int {
	n := strings.IndexByte(s[i:], delim)
	if n < 0 {
		return -1
	}
	body := s[i : i+n]
	if strings.IndexByte(body, '\\') >= 0 || !utf8.ValidString(body) {
		return -1
	}
	if delim == '>' && (strings.IndexByte(body, ' ') >= 0 || strings.IndexByte(body, '\t') >= 0) {
		return -1
	}
	return i + n
}

func (p *lineParser) eof() bool  { return p.pos >= len(p.in) }
func (p *lineParser) peek() byte { return p.in[p.pos] }
func (p *lineParser) skipWS() {
	for !p.eof() && (p.peek() == ' ' || p.peek() == '\t') {
		p.pos++
	}
}

// term parses one RDF term at the current position.
func (p *lineParser) term() (rdf.Term, error) {
	if p.eof() {
		return rdf.Term{}, p.errorf("unexpected end of line, expected a term")
	}
	switch p.peek() {
	case '<':
		return p.iriRef()
	case '_':
		return p.blankNode()
	case '"':
		return p.literal()
	default:
		return rdf.Term{}, p.errorf("unexpected character %q at column %d", p.peek(), p.pos+1)
	}
}

func (p *lineParser) iriRef() (rdf.Term, error) {
	p.pos++ // consume '<'
	start := p.pos
	if end := plainEnd(p.in, start, '>'); end > start {
		p.pos = end + 1
		return rdf.NewIRI(p.span(start, end)), nil
	}
	var b strings.Builder
	for {
		if p.eof() {
			return rdf.Term{}, p.errorf("unterminated IRI")
		}
		c := p.peek()
		switch c {
		case '>':
			p.pos++
			if b.Len() == 0 {
				return rdf.Term{}, p.errorf("empty IRI")
			}
			return rdf.NewIRI(b.String()), nil
		case '\\':
			r, err := p.unicodeEscape()
			if err != nil {
				return rdf.Term{}, err
			}
			b.WriteRune(r)
		case ' ', '\t':
			return rdf.Term{}, p.errorf("whitespace inside IRI")
		default:
			r, size := utf8.DecodeRuneInString(p.in[p.pos:])
			if r == utf8.RuneError && size == 1 {
				return rdf.Term{}, p.invalidUTF8(p.pos)
			}
			b.WriteRune(r)
			p.pos += size
		}
	}
}

// unicodeEscape consumes a \uXXXX or \UXXXXXXXX escape (the only escapes
// allowed in IRIs).
func (p *lineParser) unicodeEscape() (rune, error) {
	p.pos++ // consume '\'
	if p.eof() {
		return 0, p.errorf("dangling backslash")
	}
	var digits int
	switch p.peek() {
	case 'u':
		digits = 4
	case 'U':
		digits = 8
	default:
		return 0, p.errorf("invalid escape \\%c in IRI", p.peek())
	}
	p.pos++
	return p.hexRune(digits)
}

func (p *lineParser) hexRune(digits int) (rune, error) {
	if p.pos+digits > len(p.in) {
		return 0, p.errorf("truncated unicode escape")
	}
	var v rune
	for i := 0; i < digits; i++ {
		c := p.in[p.pos+i]
		v <<= 4
		switch {
		case c >= '0' && c <= '9':
			v |= rune(c - '0')
		case c >= 'a' && c <= 'f':
			v |= rune(c-'a') + 10
		case c >= 'A' && c <= 'F':
			v |= rune(c-'A') + 10
		default:
			return 0, p.errorf("invalid hex digit %q in unicode escape", c)
		}
	}
	p.pos += digits
	if !utf8.ValidRune(v) {
		return 0, p.errorf("escape U+%X is not a valid rune", v)
	}
	return v, nil
}

func (p *lineParser) blankNode() (rdf.Term, error) {
	if p.pos+1 >= len(p.in) || p.in[p.pos+1] != ':' {
		return rdf.Term{}, p.errorf("blank node must start with \"_:\"")
	}
	p.pos += 2
	start := p.pos
	for !p.eof() {
		c := p.peek()
		if c == ' ' || c == '\t' {
			break
		}
		// A '.' ends the label only when it terminates the statement.
		if c == '.' && (p.pos+1 >= len(p.in) || p.in[p.pos+1] == ' ' || p.in[p.pos+1] == '\t') {
			break
		}
		p.pos++
	}
	if p.pos == start {
		return rdf.Term{}, p.errorf("empty blank node label")
	}
	if i := rdf.InvalidUTF8At(p.in[start:p.pos]); i >= 0 {
		return rdf.Term{}, p.invalidUTF8(start + i)
	}
	return rdf.NewBlank(p.span(start, p.pos)), nil
}

func (p *lineParser) literal() (rdf.Term, error) {
	p.pos++ // consume '"'
	if end := plainEnd(p.in, p.pos, '"'); end >= 0 {
		start := p.pos
		p.pos = end + 1
		return p.literalSuffix(p.span(start, end))
	}
	var b strings.Builder
	for {
		if p.eof() {
			return rdf.Term{}, p.errorf("unterminated string literal")
		}
		c := p.peek()
		switch c {
		case '"':
			p.pos++
			return p.literalSuffix(b.String())
		case '\\':
			r, err := p.stringEscape()
			if err != nil {
				return rdf.Term{}, err
			}
			b.WriteRune(r)
		default:
			r, size := utf8.DecodeRuneInString(p.in[p.pos:])
			if r == utf8.RuneError && size == 1 {
				return rdf.Term{}, p.invalidUTF8(p.pos)
			}
			b.WriteRune(r)
			p.pos += size
		}
	}
}

func (p *lineParser) stringEscape() (rune, error) {
	if p.pos+1 >= len(p.in) {
		return 0, p.errorf("dangling backslash")
	}
	switch p.in[p.pos+1] {
	case 't':
		p.pos += 2
		return '\t', nil
	case 'b':
		p.pos += 2
		return '\b', nil
	case 'n':
		p.pos += 2
		return '\n', nil
	case 'r':
		p.pos += 2
		return '\r', nil
	case 'f':
		p.pos += 2
		return '\f', nil
	case '"':
		p.pos += 2
		return '"', nil
	case '\'':
		p.pos += 2
		return '\'', nil
	case '\\':
		p.pos += 2
		return '\\', nil
	case 'u':
		p.pos += 2
		return p.hexRune(4)
	case 'U':
		p.pos += 2
		return p.hexRune(8)
	default:
		return 0, p.errorf("invalid escape \\%c in literal", p.in[p.pos+1])
	}
}

// literalSuffix parses the optional @lang or ^^<datatype> after the closing
// quote.
func (p *lineParser) literalSuffix(lexical string) (rdf.Term, error) {
	if p.eof() {
		return rdf.NewLiteral(lexical), nil
	}
	switch p.peek() {
	case '@':
		p.pos++
		start := p.pos
		for !p.eof() {
			c := p.peek()
			if (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c == '-' {
				p.pos++
				continue
			}
			break
		}
		if p.pos == start {
			return rdf.Term{}, p.errorf("empty language tag")
		}
		if r, size := utf8.DecodeRuneInString(p.in[p.pos:]); r == utf8.RuneError && size == 1 {
			return rdf.Term{}, p.invalidUTF8(p.pos) // a broken byte ended the tag
		}
		return rdf.NewLangLiteral(lexical, p.span(start, p.pos)), nil
	case '^':
		if p.pos+1 >= len(p.in) || p.in[p.pos+1] != '^' {
			return rdf.Term{}, p.errorf("expected \"^^\" before datatype IRI")
		}
		p.pos += 2
		if p.eof() || p.peek() != '<' {
			return rdf.Term{}, p.errorf("expected datatype IRI after \"^^\"")
		}
		dt, err := p.iriRef()
		if err != nil {
			return rdf.Term{}, err
		}
		return rdf.NewTypedLiteral(lexical, dt.Value), nil
	default:
		return rdf.NewLiteral(lexical), nil
	}
}
