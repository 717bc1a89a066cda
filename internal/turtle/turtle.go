// Package turtle implements a reader for a practical subset of the W3C
// Turtle format, complementing internal/ntriples (the paper's loader only
// accepted N-Triples; real-world RDF is very often shipped as Turtle).
//
// Supported: @prefix / PREFIX and @base / BASE declarations, prefixed
// names, 'a' for rdf:type, predicate-object lists (';'), object lists
// (','), blank node labels, string literals with language tags or
// datatypes (quoted with " or """ long strings), and the numeric/boolean
// shorthand (42, -3.14, 1e6, true, false). Not supported (rejected with a
// clear error): anonymous blank nodes '[...]', collections '(...)', and
// single-quoted strings. Terms must be valid UTF-8.
package turtle

import (
	"fmt"
	"io"
	"strings"
	"unicode"
	"unicode/utf8"

	"rdfsum/internal/rdf"
)

// ParseError reports a syntax error with 1-based line/column position.
type ParseError struct {
	Line, Col int
	Msg       string
	Err       error // classifying cause (rdf.ErrInvalidUTF8), or nil
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("turtle: line %d:%d: %s", e.Line, e.Col, e.Msg)
}

// Unwrap returns the classifying cause, if any.
func (e *ParseError) Unwrap() error { return e.Err }

// Parse reads every triple of a Turtle document.
func Parse(r io.Reader) ([]rdf.Triple, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("turtle: read: %w", err)
	}
	return ParseString(string(data))
}

// ParseString parses a Turtle document held in a string.
func ParseString(s string) ([]rdf.Triple, error) {
	p := &parser{in: s, prefixes: map[string]string{}}
	var out []rdf.Triple
	if err := p.document(func(t rdf.Triple) { out = append(out, t) }); err != nil {
		return nil, err
	}
	return out, nil
}

type parser struct {
	in       string
	pos      int
	prefixes map[string]string
	base     string
}

func (p *parser) errorf(format string, args ...any) error {
	return p.errorAt(p.pos, fmt.Sprintf(format, args...))
}

// errorAt returns a ParseError for offset i of the input.
func (p *parser) errorAt(i int, msg string) *ParseError {
	line, col := 1, 1
	for _, r := range p.in[:i] {
		if r == '\n' {
			line++
			col = 1
		} else {
			col++
		}
	}
	return &ParseError{Line: line, Col: col, Msg: msg}
}

// invalidUTF8 reports the invalid UTF-8 byte at offset i.
func (p *parser) invalidUTF8(i int) error {
	err := p.errorAt(i, fmt.Sprintf("invalid UTF-8 byte 0x%02x", p.in[i]))
	err.Err = rdf.ErrInvalidUTF8
	return err
}

// badByte reports whether an invalid UTF-8 sequence starts at p.pos. The
// name scanners stop at one; this tells that apart from an ordinary end.
func (p *parser) badByte() bool {
	r, size := utf8.DecodeRuneInString(p.in[p.pos:])
	return r == utf8.RuneError && size == 1
}

func (p *parser) document(emit func(rdf.Triple)) error {
	for {
		p.skip()
		if p.eof() {
			return nil
		}
		if p.directive() {
			if err := p.directiveBody(); err != nil {
				return err
			}
			continue
		}
		if err := p.triples(emit); err != nil {
			return err
		}
	}
}

// directive reports whether a prefix/base directive starts here, without
// consuming it on false.
func (p *parser) directive() bool {
	rest := p.in[p.pos:]
	for _, kw := range []string{"@prefix", "@base"} {
		if strings.HasPrefix(rest, kw) {
			return true
		}
	}
	for _, kw := range []string{"PREFIX", "BASE", "prefix", "base"} {
		if strings.HasPrefix(rest, kw) && len(rest) > len(kw) && isWS(rest[len(kw)]) {
			return true
		}
	}
	return false
}

func (p *parser) directiveBody() error {
	atForm := p.in[p.pos] == '@'
	isBase := false
	switch {
	case strings.HasPrefix(p.in[p.pos:], "@prefix"):
		p.pos += len("@prefix")
	case strings.HasPrefix(p.in[p.pos:], "@base"):
		p.pos += len("@base")
		isBase = true
	default:
		kw := p.in[p.pos : p.pos+4]
		if strings.EqualFold(kw, "BASE") {
			p.pos += 4
			isBase = true
		} else {
			p.pos += len("PREFIX")
		}
	}
	p.skip()
	if isBase {
		iri, err := p.iriRef()
		if err != nil {
			return err
		}
		p.base = iri
	} else {
		start := p.pos
		for !p.eof() && p.in[p.pos] != ':' {
			p.pos++
		}
		if p.eof() {
			return p.errorf("prefix declaration: expected ':'")
		}
		name := strings.TrimSpace(p.in[start:p.pos])
		p.pos++
		p.skip()
		iri, err := p.iriRef()
		if err != nil {
			return err
		}
		p.prefixes[name] = iri
	}
	p.skip()
	if atForm {
		if p.eof() || p.in[p.pos] != '.' {
			return p.errorf("@-directive must end with '.'")
		}
		p.pos++
	} else if !p.eof() && p.in[p.pos] == '.' {
		p.pos++ // tolerated
	}
	return nil
}

// triples parses: subject predicateObjectList '.'
func (p *parser) triples(emit func(rdf.Triple)) error {
	subj, err := p.subject()
	if err != nil {
		return err
	}
	for {
		p.skip()
		pred, err := p.predicate()
		if err != nil {
			return err
		}
		for {
			p.skip()
			obj, err := p.object()
			if err != nil {
				return err
			}
			t := rdf.Triple{S: subj, P: pred, O: obj}
			if err := t.Validate(); err != nil {
				return p.errorf("%v", err)
			}
			emit(t)
			p.skip()
			if !p.eof() && p.in[p.pos] == ',' {
				p.pos++
				continue
			}
			break
		}
		if p.eof() {
			return p.errorf("expected ';' or '.' after objects")
		}
		switch p.in[p.pos] {
		case ';':
			p.pos++
			p.skip()
			// A dangling ';' before '.' is legal Turtle.
			if !p.eof() && p.in[p.pos] == '.' {
				p.pos++
				return nil
			}
			continue
		case '.':
			p.pos++
			return nil
		default:
			return p.errorf("expected ';' or '.', got %q", p.in[p.pos])
		}
	}
}

func (p *parser) subject() (rdf.Term, error) {
	p.skip()
	if p.eof() {
		return rdf.Term{}, p.errorf("expected a subject")
	}
	switch p.in[p.pos] {
	case '<':
		iri, err := p.iriRef()
		if err != nil {
			return rdf.Term{}, err
		}
		return rdf.NewIRI(iri), nil
	case '_':
		return p.blankNode()
	case '[':
		return rdf.Term{}, p.errorf("anonymous blank nodes '[...]' are not supported by this subset")
	case '(':
		return rdf.Term{}, p.errorf("collections '(...)' are not supported by this subset")
	default:
		return p.prefixedName()
	}
}

func (p *parser) predicate() (rdf.Term, error) {
	if p.eof() {
		return rdf.Term{}, p.errorf("expected a predicate")
	}
	if p.in[p.pos] == 'a' && (p.pos+1 >= len(p.in) || isWS(p.in[p.pos+1]) || p.in[p.pos+1] == '<') {
		p.pos++
		return rdf.Type(), nil
	}
	if p.in[p.pos] == '<' {
		iri, err := p.iriRef()
		if err != nil {
			return rdf.Term{}, err
		}
		return rdf.NewIRI(iri), nil
	}
	return p.prefixedName()
}

func (p *parser) object() (rdf.Term, error) {
	if p.eof() {
		return rdf.Term{}, p.errorf("expected an object")
	}
	switch c := p.in[p.pos]; {
	case c == '<':
		iri, err := p.iriRef()
		if err != nil {
			return rdf.Term{}, err
		}
		return rdf.NewIRI(iri), nil
	case c == '_':
		return p.blankNode()
	case c == '"':
		return p.literal()
	case c == '\'':
		return rdf.Term{}, p.errorf("single-quoted strings are not supported by this subset")
	case c == '[':
		return rdf.Term{}, p.errorf("anonymous blank nodes '[...]' are not supported by this subset")
	case c == '(':
		return rdf.Term{}, p.errorf("collections '(...)' are not supported by this subset")
	case c == '+' || c == '-' || (c >= '0' && c <= '9'):
		return p.numericLiteral()
	case strings.HasPrefix(p.in[p.pos:], "true") && p.boundary(p.pos+4):
		p.pos += 4
		return rdf.NewTypedLiteral("true", rdf.XSDBoolean), nil
	case strings.HasPrefix(p.in[p.pos:], "false") && p.boundary(p.pos+5):
		p.pos += 5
		return rdf.NewTypedLiteral("false", rdf.XSDBoolean), nil
	default:
		return p.prefixedName()
	}
}

func (p *parser) boundary(i int) bool {
	if i >= len(p.in) {
		return true
	}
	c := p.in[i]
	return isWS(c) || c == '.' || c == ';' || c == ','
}

func (p *parser) numericLiteral() (rdf.Term, error) {
	start := p.pos
	if p.in[p.pos] == '+' || p.in[p.pos] == '-' {
		p.pos++
	}
	digits, dot, exp := 0, false, false
	for !p.eof() {
		c := p.in[p.pos]
		switch {
		case c >= '0' && c <= '9':
			digits++
			p.pos++
		case c == '.' && !dot && !exp:
			// A '.' followed by a non-digit terminates the statement
			// instead of extending the number.
			if p.pos+1 >= len(p.in) || p.in[p.pos+1] < '0' || p.in[p.pos+1] > '9' {
				goto done
			}
			dot = true
			p.pos++
		case (c == 'e' || c == 'E') && !exp && digits > 0:
			exp = true
			p.pos++
			if !p.eof() && (p.in[p.pos] == '+' || p.in[p.pos] == '-') {
				p.pos++
			}
		default:
			goto done
		}
	}
done:
	lex := p.in[start:p.pos]
	if digits == 0 {
		return rdf.Term{}, p.errorf("malformed numeric literal %q", lex)
	}
	switch {
	case exp:
		return rdf.NewTypedLiteral(lex, rdf.XSDDouble), nil
	case dot:
		return rdf.NewTypedLiteral(lex, rdf.XSDDecimal), nil
	default:
		return rdf.NewTypedLiteral(lex, rdf.XSDInteger), nil
	}
}

func (p *parser) literal() (rdf.Term, error) {
	long := strings.HasPrefix(p.in[p.pos:], `"""`)
	var lex string
	if long {
		p.pos += 3
		end := strings.Index(p.in[p.pos:], `"""`)
		if end < 0 {
			return rdf.Term{}, p.errorf("unterminated long string")
		}
		raw := p.in[p.pos : p.pos+end]
		if i := rdf.InvalidUTF8At(raw); i >= 0 {
			return rdf.Term{}, p.invalidUTF8(p.pos + i)
		}
		p.pos += end + 3
		unescaped, err := p.unescape(raw)
		if err != nil {
			return rdf.Term{}, err
		}
		lex = unescaped
	} else {
		p.pos++
		var b strings.Builder
		for {
			if p.eof() || p.in[p.pos] == '\n' {
				return rdf.Term{}, p.errorf("unterminated string")
			}
			c := p.in[p.pos]
			if c == '"' {
				p.pos++
				break
			}
			if c == '\\' {
				if p.pos+1 >= len(p.in) {
					return rdf.Term{}, p.errorf("dangling backslash")
				}
				r, n, err := decodeEscape(p.in[p.pos:])
				if err != nil {
					return rdf.Term{}, p.errorf("%v", err)
				}
				b.WriteRune(r)
				p.pos += n
				continue
			}
			r, size := utf8.DecodeRuneInString(p.in[p.pos:])
			if r == utf8.RuneError && size == 1 {
				return rdf.Term{}, p.invalidUTF8(p.pos)
			}
			b.WriteRune(r)
			p.pos += size
		}
		lex = b.String()
	}

	// Suffix: @lang or ^^datatype.
	if !p.eof() && p.in[p.pos] == '@' {
		p.pos++
		start := p.pos
		for !p.eof() {
			c := p.in[p.pos]
			if (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c == '-' {
				p.pos++
				continue
			}
			break
		}
		if p.pos == start {
			return rdf.Term{}, p.errorf("empty language tag")
		}
		if p.badByte() {
			return rdf.Term{}, p.invalidUTF8(p.pos)
		}
		return rdf.NewLangLiteral(lex, p.in[start:p.pos]), nil
	}
	if strings.HasPrefix(p.in[p.pos:], "^^") {
		p.pos += 2
		if !p.eof() && p.in[p.pos] == '<' {
			dt, err := p.iriRef()
			if err != nil {
				return rdf.Term{}, err
			}
			return rdf.NewTypedLiteral(lex, dt), nil
		}
		t, err := p.prefixedName()
		if err != nil {
			return rdf.Term{}, err
		}
		return rdf.NewTypedLiteral(lex, t.Value), nil
	}
	return rdf.NewLiteral(lex), nil
}

// unescape processes backslash escapes in a long string body.
func (p *parser) unescape(s string) (string, error) {
	if !strings.ContainsRune(s, '\\') {
		return s, nil
	}
	var b strings.Builder
	for i := 0; i < len(s); {
		if s[i] == '\\' {
			r, n, err := decodeEscape(s[i:])
			if err != nil {
				return "", p.errorf("%v", err)
			}
			b.WriteRune(r)
			i += n
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		b.WriteRune(r)
		i += size
	}
	return b.String(), nil
}

// decodeEscape decodes one backslash escape at the start of s, returning
// the rune and the number of input bytes consumed.
func decodeEscape(s string) (rune, int, error) {
	if len(s) < 2 {
		return 0, 0, fmt.Errorf("dangling backslash")
	}
	switch s[1] {
	case 't':
		return '\t', 2, nil
	case 'b':
		return '\b', 2, nil
	case 'n':
		return '\n', 2, nil
	case 'r':
		return '\r', 2, nil
	case 'f':
		return '\f', 2, nil
	case '"':
		return '"', 2, nil
	case '\'':
		return '\'', 2, nil
	case '\\':
		return '\\', 2, nil
	case 'u', 'U':
		digits := 4
		if s[1] == 'U' {
			digits = 8
		}
		if len(s) < 2+digits {
			return 0, 0, fmt.Errorf("truncated unicode escape")
		}
		var v rune
		for i := 0; i < digits; i++ {
			c := s[2+i]
			v <<= 4
			switch {
			case c >= '0' && c <= '9':
				v |= rune(c - '0')
			case c >= 'a' && c <= 'f':
				v |= rune(c-'a') + 10
			case c >= 'A' && c <= 'F':
				v |= rune(c-'A') + 10
			default:
				return 0, 0, fmt.Errorf("invalid hex digit %q", c)
			}
		}
		if !utf8.ValidRune(v) {
			return 0, 0, fmt.Errorf("escape U+%X is not a valid rune", v)
		}
		return v, 2 + digits, nil
	default:
		return 0, 0, fmt.Errorf("invalid escape \\%c", s[1])
	}
}

func (p *parser) iriRef() (string, error) {
	if p.eof() || p.in[p.pos] != '<' {
		return "", p.errorf("expected '<IRI>'")
	}
	p.pos++
	var b strings.Builder
	for {
		if p.eof() {
			return "", p.errorf("unterminated IRI")
		}
		c := p.in[p.pos]
		switch c {
		case '>':
			p.pos++
			return p.resolve(b.String()), nil
		case '\\':
			r, n, err := decodeEscape(p.in[p.pos:])
			if err != nil {
				return "", p.errorf("%v", err)
			}
			b.WriteRune(r)
			p.pos += n
		case ' ', '\t', '\n':
			return "", p.errorf("whitespace inside IRI")
		default:
			r, size := utf8.DecodeRuneInString(p.in[p.pos:])
			if r == utf8.RuneError && size == 1 {
				return "", p.invalidUTF8(p.pos)
			}
			b.WriteRune(r)
			p.pos += size
		}
	}
}

// resolve applies the @base to relative IRIs (simple concatenation for
// fragment/suffix references — full RFC 3986 resolution is out of scope).
func (p *parser) resolve(iri string) string {
	if p.base == "" || strings.Contains(iri, "://") || strings.HasPrefix(iri, "urn:") {
		return iri
	}
	return p.base + iri
}

func (p *parser) blankNode() (rdf.Term, error) {
	if p.pos+1 >= len(p.in) || p.in[p.pos+1] != ':' {
		return rdf.Term{}, p.errorf("blank node must start with \"_:\"")
	}
	p.pos += 2
	start := p.pos
	for !p.eof() {
		r, size := utf8.DecodeRuneInString(p.in[p.pos:])
		if unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_' || r == '-' {
			p.pos += size
			continue
		}
		break
	}
	if p.badByte() {
		return rdf.Term{}, p.invalidUTF8(p.pos)
	}
	if p.pos == start {
		return rdf.Term{}, p.errorf("empty blank node label")
	}
	return rdf.NewBlank(p.in[start:p.pos]), nil
}

func (p *parser) prefixedName() (rdf.Term, error) {
	start := p.pos
	for !p.eof() {
		c := p.in[p.pos]
		if c == ':' || isWS(c) || c == ';' || c == ',' || c == '"' || c == '<' {
			break
		}
		p.pos++
	}
	if p.eof() || p.in[p.pos] != ':' {
		p.pos = start
		return rdf.Term{}, p.errorf("expected a prefixed name")
	}
	prefix := p.in[start:p.pos]
	p.pos++
	localStart := p.pos
	for !p.eof() {
		r, size := utf8.DecodeRuneInString(p.in[p.pos:])
		if unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_' || r == '-' {
			p.pos += size
			continue
		}
		// Inner dots are part of the local name when followed by a name
		// character ("ex:a.b"); a trailing dot terminates the statement.
		if r == '.' && p.pos+size < len(p.in) {
			nr, _ := utf8.DecodeRuneInString(p.in[p.pos+size:])
			if unicode.IsLetter(nr) || unicode.IsDigit(nr) || nr == '_' {
				p.pos += size
				continue
			}
		}
		break
	}
	if p.badByte() {
		return rdf.Term{}, p.invalidUTF8(p.pos)
	}
	ns, ok := p.prefixes[prefix]
	if !ok {
		return rdf.Term{}, p.errorf("undeclared prefix %q", prefix)
	}
	return rdf.NewIRI(ns + p.in[localStart:p.pos]), nil
}

// skip consumes whitespace and comments.
func (p *parser) skip() {
	for !p.eof() {
		c := p.in[p.pos]
		if isWS(c) {
			p.pos++
			continue
		}
		if c == '#' {
			for !p.eof() && p.in[p.pos] != '\n' {
				p.pos++
			}
			continue
		}
		return
	}
}

func (p *parser) eof() bool { return p.pos >= len(p.in) }

func isWS(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }
