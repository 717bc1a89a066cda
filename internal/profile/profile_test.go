package profile

import (
	"bytes"
	"strings"
	"testing"

	"rdfsum/internal/bsbm"
	"rdfsum/internal/core"
	"rdfsum/internal/samples"
)

func TestProfileFig2(t *testing.T) {
	s := core.MustSummarize(samples.Fig2(), core.TypedWeak)
	p := Build(s)
	if len(p.Kinds) != 9 { // 3 class-set kinds + 6 untyped kinds (Figure 7)
		t.Fatalf("profile has %d kinds, want 9", len(p.Kinds))
	}
	// Typed kinds sort first.
	if len(p.Kinds[0].Classes) == 0 {
		t.Error("typed kinds must sort before untyped ones")
	}
	// The Journal kind represents r2 and r6.
	found := false
	for _, k := range p.Kinds {
		if k.Label() == "{Journal}" {
			found = true
			if k.Instances != 2 {
				t.Errorf("{Journal} has %d instances, want 2 (r2, r6)", k.Instances)
			}
			has := strings.Join(k.Attributes, ",")
			if !strings.Contains(has, "title") || !strings.Contains(has, "editor") {
				t.Errorf("{Journal} attributes = %v, want title and editor", k.Attributes)
			}
		}
	}
	if !found {
		t.Fatal("profile missing the {Journal} kind")
	}
}

func TestProfileRelationshipsBSBM(t *testing.T) {
	g := bsbm.GenerateGraph(bsbm.DefaultConfig(60))
	s := core.MustSummarize(g, core.TypedWeak)
	p := Build(s)

	var offer *EntityKind
	for i := range p.Kinds {
		if p.Kinds[i].Label() == "{Offer}" {
			offer = &p.Kinds[i]
			break
		}
	}
	if offer == nil {
		t.Fatal("profile missing {Offer}")
	}
	if offer.Instances != 60*3 {
		t.Errorf("{Offer} instances = %d, want %d", offer.Instances, 60*3)
	}
	rels := strings.Join(offer.Relationships, "|")
	if !strings.Contains(rels, "vendor -> {Vendor}") {
		t.Errorf("{Offer} relationships missing vendor link: %v", offer.Relationships)
	}
	attrs := strings.Join(offer.Attributes, ",")
	if !strings.Contains(attrs, "price") {
		t.Errorf("{Offer} attributes missing price: %v", offer.Attributes)
	}
}

func TestProfileWrite(t *testing.T) {
	s := core.MustSummarize(samples.Fig2(), core.TypedWeak)
	p := Build(s)
	var buf bytes.Buffer
	if err := p.Write(&buf, 4); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "entity kinds") || !strings.Contains(out, "more kinds") {
		t.Errorf("report missing expected lines:\n%s", out)
	}
	var full bytes.Buffer
	if err := p.Write(&full, 0); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(full.String(), "more kinds") {
		t.Error("maxKinds=0 must not truncate")
	}
}
