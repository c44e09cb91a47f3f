package zskyline

// This file holds one testing.B benchmark per table/figure of the
// paper's evaluation (§6), each driving the corresponding experiment
// from internal/exp, plus micro-benchmarks for the core primitives.
//
// Figure benchmarks run the full experiment once per iteration at a
// reduced scale (default 0.1x of the laptop-scale sizes; override with
// SKY_BENCH_SCALE). For the real evaluation tables use:
//
//	go run ./cmd/skybench -run all -scale 1
//
// For a quick pass:
//
//	go test -bench=. -benchmem -benchtime=1x .

import (
	"context"
	"os"
	"strconv"
	"testing"

	"zskyline/internal/core"
	"zskyline/internal/exp"
	"zskyline/internal/gen"
	"zskyline/internal/gpmrs"
	"zskyline/internal/plan"
	"zskyline/internal/point"
	"zskyline/internal/sample"
	"zskyline/internal/seq"
	"zskyline/internal/zbtree"
	"zskyline/internal/zorder"
)

func benchScale() float64 {
	if s := os.Getenv("SKY_BENCH_SCALE"); s != "" {
		if v, err := strconv.ParseFloat(s, 64); err == nil && v > 0 {
			return v
		}
	}
	return 0.1
}

// benchFigure runs one registered experiment per iteration.
func benchFigure(b *testing.B, id string) {
	b.Helper()
	e, ok := exp.Get(id)
	if !ok {
		b.Fatalf("experiment %q not registered", id)
	}
	p := exp.Params{Scale: benchScale(), Workers: 8, Seed: 42}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Run(ctx, p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig3(b *testing.B)  { benchFigure(b, "fig3") }
func BenchmarkFig4(b *testing.B)  { benchFigure(b, "fig4") }
func BenchmarkFig7a(b *testing.B) { benchFigure(b, "fig7a") }
func BenchmarkFig7b(b *testing.B) { benchFigure(b, "fig7b") }
func BenchmarkFig7c(b *testing.B) { benchFigure(b, "fig7c") }
func BenchmarkFig7d(b *testing.B) { benchFigure(b, "fig7d") }
func BenchmarkFig8a(b *testing.B) { benchFigure(b, "fig8a") }
func BenchmarkFig8b(b *testing.B) { benchFigure(b, "fig8b") }
func BenchmarkFig8c(b *testing.B) { benchFigure(b, "fig8c") }
func BenchmarkFig8d(b *testing.B) { benchFigure(b, "fig8d") }
func BenchmarkFig9a(b *testing.B) { benchFigure(b, "fig9a") }
func BenchmarkFig9b(b *testing.B) { benchFigure(b, "fig9b") }
func BenchmarkFig10(b *testing.B) { benchFigure(b, "fig10") }
func BenchmarkFig11(b *testing.B) { benchFigure(b, "fig11") }
func BenchmarkFig12(b *testing.B) { benchFigure(b, "fig12") }
func BenchmarkFig13(b *testing.B) { benchFigure(b, "fig13") }

// --- Micro-benchmarks: the primitives behind the figures ---

func BenchmarkZOrderEncode5d(b *testing.B) {
	enc, _ := zorder.NewUnitEncoder(5, 16)
	ds := gen.Synthetic(gen.Independent, 1000, 5, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc.Encode(ds.Points[i%1000])
	}
}

func BenchmarkZOrderEncode225d(b *testing.B) {
	enc, _ := zorder.NewUnitEncoder(225, 8)
	ds := gen.NUSWideLike(100, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc.Encode(ds.Points[i%100])
	}
}

func BenchmarkZSearch20k5dIndep(b *testing.B) {
	enc, _ := zorder.NewUnitEncoder(5, 16)
	ds := gen.Synthetic(gen.Independent, 20000, 5, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		zbtree.ZSearch(enc, 16, ds.Points, nil)
	}
}

func BenchmarkSB20k5dIndep(b *testing.B) {
	ds := gen.Synthetic(gen.Independent, 20000, 5, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seq.SB(ds.Points, nil)
	}
}

func BenchmarkZMergeVsRecompute(b *testing.B) {
	enc, _ := zorder.NewUnitEncoder(4, 16)
	a := gen.Synthetic(gen.AntiCorrelated, 20000, 4, 1)
	c := gen.Synthetic(gen.AntiCorrelated, 20000, 4, 2)
	skyA := zbtree.ZSearch(enc, 16, a.Points, nil)
	skyB := zbtree.ZSearch(enc, 16, c.Points, nil)
	b.Run("zmerge", func(b *testing.B) {
		st := zbtree.NewStore(enc, point.BlockOf(4, append(append([]Point{}, skyA...), skyB...)))
		for i := 0; i < b.N; i++ {
			rowsA, rowsB := make([]int32, len(skyA)), make([]int32, len(skyB))
			for r := range rowsA {
				rowsA[r] = int32(r)
			}
			for r := range rowsB {
				rowsB[r] = int32(len(skyA) + r)
			}
			zbtree.MergeBlock(zbtree.BuildRows(st, 16, rowsA, nil), zbtree.BuildRows(st, 16, rowsB, nil))
		}
	})
	b.Run("sb-recompute", func(b *testing.B) {
		all := append(append([]Point{}, skyA...), skyB...)
		for i := 0; i < b.N; i++ {
			seq.SB(all, nil)
		}
	})
}

func BenchmarkPipelineZDG50k(b *testing.B) {
	ds := gen.Synthetic(gen.Independent, 50000, 5, 1)
	cfg := core.Defaults()
	eng, err := core.NewEngine(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := eng.Skyline(context.Background(), ds); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPipelineGrid50k(b *testing.B) {
	ds := gen.Synthetic(gen.Independent, 50000, 5, 1)
	cfg := core.Defaults()
	cfg.Strategy = core.Grid
	eng, err := core.NewEngine(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := eng.Skyline(context.Background(), ds); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGPMRS50k(b *testing.B) {
	ds := gen.Synthetic(gen.Independent, 50000, 5, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := gpmrs.Skyline(context.Background(), ds, gpmrs.Config{Workers: 8}); err != nil {
			b.Fatal(err)
		}
	}
}

// Ablation benchmarks (design-choice studies from DESIGN.md).
func BenchmarkAblSZB(b *testing.B)        { benchFigure(b, "abl-szb") }
func BenchmarkAblDelta(b *testing.B)      { benchFigure(b, "abl-delta") }
func BenchmarkAblBits(b *testing.B)       { benchFigure(b, "abl-bits") }
func BenchmarkAblFanout(b *testing.B)     { benchFigure(b, "abl-fanout") }
func BenchmarkAblWorkers(b *testing.B)    { benchFigure(b, "abl-workers") }
func BenchmarkAblModel(b *testing.B)      { benchFigure(b, "abl-model") }
func BenchmarkAblSkew(b *testing.B)       { benchFigure(b, "abl-skew") }
func BenchmarkAblStragglers(b *testing.B) { benchFigure(b, "abl-stragglers") }
func BenchmarkAblOOC(b *testing.B)        { benchFigure(b, "abl-ooc") }

// Phase-2 map-path memory benchmarks: MapBlock (scratch reuse and
// per-group arenas) over the whole dataset as one task, so allocs/op is
// the map/route path itself.
func mapPhaseFixture(b *testing.B, n, d int) (*plan.Rule, point.Block) {
	b.Helper()
	ds := gen.Synthetic(gen.AntiCorrelated, n, d, 42)
	smp, err := sample.Ratio(ds.Points, 0.02, 42)
	if err != nil {
		b.Fatal(err)
	}
	mins, maxs, err := ds.Bounds()
	if err != nil {
		b.Fatal(err)
	}
	spec := &plan.Spec{Strategy: plan.ZDG, Local: plan.SB, Merge: plan.MergeZM,
		M: 32, Delta: 4, SampleRatio: 0.02, Bits: 16}
	r, err := plan.Learn(spec, ds.Dims, mins, maxs, smp, nil)
	if err != nil {
		b.Fatal(err)
	}
	return r, point.BlockOf(ds.Dims, ds.Points)
}

func BenchmarkMapPhaseBlock50k5d(b *testing.B) {
	r, blk := mapPhaseFixture(b, 50000, 5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = r.MapBlock(blk, nil)
	}
}

func BenchmarkMapPhaseBlock20k20d(b *testing.B) {
	r, blk := mapPhaseFixture(b, 20000, 20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = r.MapBlock(blk, nil)
	}
}
