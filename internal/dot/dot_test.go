package dot

import (
	"bytes"
	"strings"
	"testing"

	"rdfsum/internal/core"
	"rdfsum/internal/samples"
)

func TestWriteBasics(t *testing.T) {
	g := samples.Fig2()
	var buf bytes.Buffer
	if err := Write(&buf, g, &Options{Title: "fig2"}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"digraph rdfsum {", `label="fig2"`, "author", "τ", "fillcolor"} {
		if !strings.Contains(out, want) {
			t.Errorf("DOT output missing %q", want)
		}
	}
	if !strings.HasSuffix(strings.TrimSpace(out), "}") {
		t.Error("DOT output not closed")
	}
}

func TestWriteSummaryLabels(t *testing.T) {
	s := core.MustSummarize(samples.Fig2(), core.TypedWeak)
	var buf bytes.Buffer
	if err := Write(&buf, s.Graph, nil); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "C{") {
		t.Error("class-set nodes should render as C{...}")
	}
	if !strings.Contains(out, "N[in:") {
		t.Error("summary nodes should render as N[in:... out:...]")
	}
}

func TestWriteTruncation(t *testing.T) {
	g := samples.Fig2()
	var buf bytes.Buffer
	if err := Write(&buf, g, &Options{MaxNodes: 3}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "3 of") {
		t.Error("truncation comment missing")
	}
}
