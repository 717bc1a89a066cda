package core

import (
	"crypto/sha256"
	"encoding/hex"
	"sort"
	"strings"

	"rdfsum/internal/dict"
	"rdfsum/internal/rdf"
	"rdfsum/internal/store"
)

// Summary node URIs live under this scheme-like prefix. They never collide
// with input URIs in practice and are easily recognizable in output.
const nameNS = "rdfsum:"

// maxInlineName bounds the rendered property/class lists in a node URI;
// longer lists are replaced by a SHA-256 digest, preserving the injectivity
// of the representation function while keeping URIs short.
const maxInlineName = 256

// representer implements the paper's N function (§4.1): an injective
// function from a (target-property set, source-property set) pair to a
// URI. It is content-addressed — the URI is derived from the sorted
// property IRIs — so equal clique contents yield equal URIs across graphs
// and across runs. This is what turns the paper's completeness statements
// into literal triple-set equalities.
type representer struct {
	d   *dict.Dict
	tag string // per-kind namespace: "w", "s", "tw", "ts", "tb"
}

func newRepresenter(g *store.Graph, kind Kind) *representer {
	var tag string
	switch kind {
	case Weak:
		tag = "w"
	case Strong:
		tag = "s"
	case TypeBased:
		tag = "tb"
	case TypedWeak:
		tag = "tw"
	case TypedStrong:
		tag = "ts"
	}
	return &representer{d: g.Dict(), tag: tag}
}

// node returns the ID of N(in, out): the summary node whose members have
// target clique `in` and source clique `out` (either may be empty; both
// empty yields the paper's Nτ node).
func (r *representer) node(in, out []dict.ID) dict.ID {
	name := nameNS + r.tag + "?in=" + r.renderSet(in) + "&out=" + r.renderSet(out)
	return r.d.Encode(rdf.NewIRI(name))
}

// classSetNode returns the ID of C(X) for a non-empty class set X
// (Definition 12). The same class set always maps to the same URI, shared
// by the type-based, typed-weak and typed-strong summaries.
func (r *representer) classSetNode(classes []dict.ID) dict.ID {
	name := nameNS + "cls?c=" + r.renderSet(classes)
	return r.d.Encode(rdf.NewIRI(name))
}

// freshCopy returns the ID of C(∅) for one untyped node of the type-based
// summary: a distinct URI per represented node ("given an empty set of
// URIs, [C] returns a new URI on every call"). The URI is content-
// addressed on the represented node's own lexical form, which keeps the
// function injective over the input's untyped nodes while making the
// construction independent of triple order.
func (r *representer) freshCopy(original dict.ID) dict.ID {
	rendered := r.d.Term(original).String()
	if len(rendered) > maxInlineName {
		sum := sha256.Sum256([]byte(rendered))
		rendered = "sha256:" + hex.EncodeToString(sum[:16])
	}
	return r.d.Encode(rdf.NewIRI(nameNS + r.tag + "/u?n=" + url(rendered)))
}

// renderSet renders a set of term IDs as a sorted, comma-separated list of
// their lexical forms, or a digest when the list is long. Sorting is by
// lexical form, not ID, so the rendering is dictionary-independent.
func (r *representer) renderSet(ids []dict.ID) string {
	if len(ids) == 0 {
		return ""
	}
	parts := make([]string, len(ids))
	for i, id := range ids {
		parts[i] = r.d.Term(id).String()
	}
	sort.Strings(parts)
	joined := strings.Join(parts, ",")
	if len(joined) <= maxInlineName {
		return url(joined)
	}
	sum := sha256.Sum256([]byte(joined))
	return "sha256:" + hex.EncodeToString(sum[:16])
}

// url lightly escapes characters that would make the generated URI
// ambiguous inside angle brackets or query strings. '%' itself is escaped
// too, or a rendered "%20" could stand for either ' ' or a literal "%20"
// and N would not be injective.
func url(s string) string {
	if !strings.ContainsAny(s, " &?%") {
		return s
	}
	var b strings.Builder
	for _, c := range []byte(s) {
		switch c {
		case '%':
			b.WriteString("%25")
		case ' ':
			b.WriteString("%20")
		case '&':
			b.WriteString("%26")
		case '?':
			b.WriteString("%3F")
		default:
			b.WriteByte(c)
		}
	}
	return b.String()
}
