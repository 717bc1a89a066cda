package core

import (
	"fmt"
	"testing"

	"rdfsum/internal/bsbm"
	"rdfsum/internal/lubm"
	"rdfsum/internal/store"
)

// BenchmarkSeedVsOracle compares Summarize — the engine seeded with the
// whole graph, then snapshotted once — with the batch oracle construction
// of the same kind, on BSBM-5000 and LUBM-151 (BSBM-200 and LUBM-5 under
// -short). The engine is expected to allocate no more bytes per op than
// the oracle for any kind, and to take no more time summed over the five
// kinds of a dataset.
func BenchmarkSeedVsOracle(b *testing.B) {
	products, universities := 5000, 151
	if testing.Short() {
		products, universities = 200, 5
	}
	datasets := []struct {
		name string
		gen  func() *store.Graph
	}{
		{fmt.Sprintf("bsbm-%d", products), func() *store.Graph {
			return bsbm.GenerateGraph(bsbm.DefaultConfig(products))
		}},
		{fmt.Sprintf("lubm-%d", universities), func() *store.Graph {
			return lubm.GenerateGraph(lubm.DefaultConfig(universities))
		}},
	}
	for _, ds := range datasets {
		g := ds.gen()
		for _, kind := range Kinds {
			// Intern the summary's node names up front, so the side that
			// happens to run first does not pay for growing the dictionary.
			MustSummarize(g, kind)
			b.Run(ds.name+"/"+kind.String(), func(b *testing.B) {
				b.Run("engine", func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						MustSummarize(g, kind)
					}
				})
				b.Run("oracle", func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						batchSummarize(g, kind)
					}
				})
			})
		}
	}
}
