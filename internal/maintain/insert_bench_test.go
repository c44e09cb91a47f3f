package maintain

import (
	"testing"

	"zskyline/internal/dominance"
	"zskyline/internal/gen"
	"zskyline/internal/point"
)

// benchInsertBlock16 times one ingest of the serve-churn shape: a
// maintainer over 15k anti-correlated rows in d=6 (a Pareto skyline of
// about 2.4k rows) takes a batch of 16 fresh anti-correlated rows per
// iteration. Every 256 batches it starts over from the base rows, off
// the clock, so the skyline it folds into stays the same size.
func benchInsertBlock16(b *testing.B, prov dominance.Provider) {
	const dims, batches = 6, 256
	base := gen.Synthetic(gen.AntiCorrelated, 15000, dims, 1)
	mins, maxs, err := base.Bounds()
	if err != nil {
		b.Fatal(err)
	}
	src := gen.NewSource(gen.AntiCorrelated, 16*batches, dims, 2)
	ins := make([]point.Block, batches)
	for i := range ins {
		ins[i], _ = src.Next(16)
	}
	fresh := func() *Maintainer {
		m, err := NewUnder(prov, dims, 16, mins, maxs)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := m.InsertBlock(point.BlockOf(dims, base.Points)); err != nil {
			b.Fatal(err)
		}
		return m
	}
	m := fresh()
	rows := m.Size()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i > 0 && i%batches == 0 {
			b.StopTimer()
			m = fresh()
			b.StartTimer()
		}
		if _, err := m.InsertBlock(ins[i%batches]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(rows), "skyline_rows")
}

func BenchmarkInsertBlock16AntiD6(b *testing.B) { benchInsertBlock16(b, nil) }

// The flex twin: no benchmark workload covers a non-Pareto maintainer.
func BenchmarkInsertBlock16AntiD6Flex(b *testing.B) {
	flex, err := dominance.Parse("flex:1,0.1,0.1,0.1,0.1,0.1;0.1,1,0.1,0.1,0.1,0.1;0.1,0.1,1,0.1,0.1,0.1;0.1,0.1,0.1,1,0.1,0.1;0.1,0.1,0.1,0.1,1,0.1;0.1,0.1,0.1,0.1,0.1,1")
	if err != nil {
		b.Fatal(err)
	}
	benchInsertBlock16(b, flex)
}
