package lubm

import (
	"reflect"
	"testing"

	"rdfsum/internal/core"
	"rdfsum/internal/rdf"
	"rdfsum/internal/saturate"
)

func TestGenerateIsDeterministic(t *testing.T) {
	a := GenerateTriples(DefaultConfig(2))
	b := GenerateTriples(DefaultConfig(2))
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same config generated different datasets")
	}
	other := DefaultConfig(2)
	other.Seed = 7
	if reflect.DeepEqual(a, GenerateTriples(other)) {
		t.Fatal("different seeds generated identical datasets")
	}
}

func TestScale(t *testing.T) {
	one := len(GenerateTriples(DefaultConfig(1)))
	four := len(GenerateTriples(DefaultConfig(4)))
	ratio := float64(four) / float64(one)
	if ratio < 3 || ratio > 5.5 {
		t.Errorf("4x universities changed triples by %.1fx, want ≈4x", ratio)
	}
	per := float64(one)
	if per < 0.5*TriplesPerUniversity || per > 1.6*TriplesPerUniversity {
		t.Errorf("triples per university = %.0f, want ≈%d", per, TriplesPerUniversity)
	}
	if EstimateUniversities(100) != 1 {
		t.Error("EstimateUniversities must floor at 1")
	}
	if n := EstimateUniversities(10 * TriplesPerUniversity); n != 10 {
		t.Errorf("EstimateUniversities = %d, want 10", n)
	}
}

func TestWellBehavedAndValid(t *testing.T) {
	ts := GenerateTriples(DefaultConfig(1))
	if v := rdf.CheckWellBehaved(ts); len(v) != 0 {
		t.Fatalf("LUBM dataset not well-behaved: %v", v[0])
	}
	for _, tr := range ts {
		if err := tr.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSaturationAmplification: LUBM's deep hierarchy must make saturation
// grow the graph substantially (unlike BSBM's shallow one) — the profile
// this dataset exists to exercise.
func TestSaturationAmplification(t *testing.T) {
	g := GenerateGraph(DefaultConfig(1))
	inf := saturate.Graph(g)
	typeGrowth := float64(len(inf.Types)) / float64(len(g.Types))
	if typeGrowth < 1.8 {
		t.Errorf("saturation grew T_G only %.2fx; the class hierarchy should at least double it", typeGrowth)
	}
	if len(inf.Data) <= len(g.Data) {
		t.Error("subproperty families should add generalized data triples")
	}
	// headOf entails worksFor: every department head works for the dept.
	d := g.Dict()
	headOf, _ := d.LookupIRI(NS + "headOf")
	worksFor, _ := d.LookupIRI(NS + "worksFor")
	heads := map[uint32]uint32{}
	for _, tr := range g.Data {
		if tr.P == headOf {
			heads[uint32(tr.S)] = uint32(tr.O)
		}
	}
	if len(heads) == 0 {
		t.Fatal("no headOf triples generated")
	}
	for s, o := range heads {
		found := false
		for _, tr := range inf.Data {
			if tr.P == worksFor && uint32(tr.S) == s && uint32(tr.O) == o {
				found = true
				break
			}
		}
		if !found {
			t.Fatal("headOf did not entail worksFor in G∞")
		}
	}
}

// TestSummariesOnLUBM: all kinds build; typed kinds see the rank-level
// class sets.
func TestSummariesOnLUBM(t *testing.T) {
	g := GenerateGraph(DefaultConfig(1))
	w := core.MustSummarize(g, core.Weak)
	tw := core.MustSummarize(g, core.TypedWeak)
	if w.Stats.CompressionRatio() > 0.05 {
		t.Errorf("weak compression %.3f too large", w.Stats.CompressionRatio())
	}
	if tw.Stats.DataNodes <= w.Stats.DataNodes {
		t.Errorf("typed-weak (%d) should exceed weak (%d) data nodes",
			tw.Stats.DataNodes, w.Stats.DataNodes)
	}
	// The three professor ranks yield three distinct class-set nodes.
	classSets := map[uint32]bool{}
	for _, tr := range tw.Graph.Types {
		classSets[uint32(tr.S)] = true
	}
	if len(classSets) < 10 {
		t.Errorf("typed-weak sees %d class sets, want >= 10 (ranks, students, orgs...)", len(classSets))
	}
}
