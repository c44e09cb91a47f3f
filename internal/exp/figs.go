package exp

import (
	"context"
	"fmt"

	"zskyline/internal/core"
	"zskyline/internal/gen"
	"zskyline/internal/grouping"
	"zskyline/internal/partition"
	"zskyline/internal/point"
	"zskyline/internal/zbtree"
	"zskyline/internal/zorder"
)

// The six (strategy, local) series of Figure 7.
var fig7Series = []combo{
	{core.Grid, core.SB, core.MergeZM},
	{core.Grid, core.ZS, core.MergeZM},
	{core.Angle, core.SB, core.MergeZM},
	{core.Angle, core.ZS, core.MergeZM},
	{core.ZDG, core.SB, core.MergeZM},
	{core.ZDG, core.ZS, core.MergeZM},
}

func init() {
	register(Experiment{
		ID:       "fig3",
		Title:    "Skyline distribution across Z-partitions (NBA-like, HOU-like)",
		PaperRef: "Figure 3 / Example 2",
		Run:      runFig3,
	})
	registerFig7()
	registerFig8()
	registerFig9()
	register(Experiment{
		ID:       "fig10",
		Title:    "Effect of the number of groups M (reconstructed)",
		PaperRef: "§6.4 (text missing; reconstructed per DESIGN.md §7)",
		Run:      runFig10,
	})
	register(Experiment{
		ID:       "fig11",
		Title:    "Real-world high-dimensional datasets (simulated; reconstructed)",
		PaperRef: "§6.1/§6.5 (reconstructed per DESIGN.md §7)",
		Run:      runFig11,
	})
	register(Experiment{
		ID:       "fig12",
		Title:    "Scalability vs MR-GPMRS",
		PaperRef: "Figure 12",
		Run:      runFig12,
	})
	register(Experiment{
		ID:       "fig13",
		Title:    "Effect of data sampling ratio",
		PaperRef: "Figure 13",
		Run:      runFig13,
	})
}

func runFig3(ctx context.Context, p Params) (*Table, error) {
	p = p.normalize()
	const parts = 16
	t := &Table{
		ID:      "fig3",
		Title:   "sample skyline points per Z-partition",
		Columns: []string{"partition", "NBA-like (anti-corr)", "HOU-like (indep)"},
		Notes:   "real NBA/HOU data replaced by seeded simulators (DESIGN.md §6)",
	}
	nba := gen.NBALike(int(350*p.Scale)+350, p.Seed)
	hou := gen.HOULike(p.n(1), p.Seed)
	counts := func(ds *point.Dataset) ([]int, error) {
		mins, maxs := mustBounds(ds)
		enc, err := zorder.NewEncoder(ds.Dims, 12, mins, maxs)
		if err != nil {
			return nil, err
		}
		zc, err := partition.NewZCurve(enc, partition.EncodeSample(enc, ds.Points, zbtree.ZSearch(enc, 0, ds.Points, nil)), parts)
		if err != nil {
			return nil, err
		}
		out := make([]int, parts)
		for i, in := range zc.Infos() {
			if i < parts {
				out[i] = in.SkyCount
			}
		}
		return out, nil
	}
	nbaCounts, err := counts(nba)
	if err != nil {
		return nil, err
	}
	houCounts, err := counts(hou)
	if err != nil {
		return nil, err
	}
	for i := 0; i < parts; i++ {
		t.AddRow(fmt.Sprint(i), fmt.Sprint(nbaCounts[i]), fmt.Sprint(houCounts[i]))
	}
	return t, nil
}

func mustBounds(ds *point.Dataset) ([]float64, []float64) {
	mins, maxs, err := ds.Bounds()
	if err != nil {
		panic(err)
	}
	return mins, maxs
}

func registerFig7() {
	type variant struct {
		id, title string
		dist      gen.Distribution
		byDim     bool
	}
	for _, v := range []variant{
		{"fig7a", "Total time vs data size, independent, d=5, M=32", gen.Independent, false},
		{"fig7b", "Total time vs data size, anti-correlated, d=5, M=32", gen.AntiCorrelated, false},
		{"fig7c", "Total time vs dimensionality, independent, n=50k*scale", gen.Independent, true},
		{"fig7d", "Total time vs dimensionality, anti-correlated, n=50k*scale", gen.AntiCorrelated, true},
	} {
		v := v
		register(Experiment{
			ID:       v.id,
			Title:    v.title,
			PaperRef: "Figure 7",
			Run: func(ctx context.Context, p Params) (*Table, error) {
				return runFig7(ctx, p, v.id, v.title, v.dist, v.byDim)
			},
		})
	}
}

func runFig7(ctx context.Context, p Params, id, title string, dist gen.Distribution, byDim bool) (*Table, error) {
	p = p.normalize()
	cols := []string{xLabel(byDim)}
	for _, c := range fig7Series {
		cols = append(cols, c.name()+" (ms)")
	}
	t := &Table{ID: id, Title: title, Columns: cols,
		Notes: "paper sizes / 1000; shapes, not absolute seconds, are the target"}
	for _, x := range xValues(byDim) {
		n, d := 50, 5
		if byDim {
			d = x
		} else {
			n = x
		}
		ds := gen.Synthetic(dist, p.n(n), d, p.Seed)
		row := []string{fmt.Sprint(x)}
		for _, c := range fig7Series {
			rep, err := runPipeline(ctx, ds, c, 32, p)
			if err != nil {
				return nil, err
			}
			row = append(row, ms(rep.Total))
		}
		t.AddRow(row...)
	}
	return t, nil
}

func xLabel(byDim bool) string {
	if byDim {
		return "dims"
	}
	return "n (x1000*scale)"
}

func xValues(byDim bool) []int {
	if byDim {
		return []int{2, 4, 6, 8, 10}
	}
	return []int{10, 30, 50, 70, 90, 110}
}

// The merge-algorithm series of Figure 8: partitioning x merge.
var fig8Series = []combo{
	{core.Grid, core.ZS, core.MergeSB},
	{core.Angle, core.ZS, core.MergeSB},
	{core.ZDG, core.ZS, core.MergeSB},
	{core.Grid, core.ZS, core.MergeZS},
	{core.Angle, core.ZS, core.MergeZS},
	{core.ZDG, core.ZS, core.MergeZS},
	{core.ZDG, core.ZS, core.MergeZM},
}

func registerFig8() {
	type variant struct {
		id, title string
		dist      gen.Distribution
		byDim     bool
	}
	for _, v := range []variant{
		{"fig8a", "Merge time vs data size, independent", gen.Independent, false},
		{"fig8b", "Merge time vs data size, anti-correlated", gen.AntiCorrelated, false},
		{"fig8c", "Merge time vs dimensionality, independent", gen.Independent, true},
		{"fig8d", "Merge time vs dimensionality, anti-correlated", gen.AntiCorrelated, true},
	} {
		v := v
		register(Experiment{
			ID:       v.id,
			Title:    v.title,
			PaperRef: "Figure 8",
			Run: func(ctx context.Context, p Params) (*Table, error) {
				return runFig8(ctx, p, v.id, v.title, v.dist, v.byDim)
			},
		})
	}
}

func runFig8(ctx context.Context, p Params, id, title string, dist gen.Distribution, byDim bool) (*Table, error) {
	p = p.normalize()
	cols := []string{xLabel(byDim)}
	for _, c := range fig8Series {
		cols = append(cols, c.st.String()+"/"+c.merge.String()+"-merge (ms)")
	}
	t := &Table{ID: id, Title: title, Columns: cols,
		Notes: "cells are phase-3 (candidate merging) time only"}
	xs := []int{20, 50, 80, 110}
	if byDim {
		xs = []int{4, 6, 8, 10}
	}
	for _, x := range xs {
		n, d := 50, 5
		if byDim {
			d = x
		} else {
			n = x
		}
		ds := gen.Synthetic(dist, p.n(n), d, p.Seed)
		row := []string{fmt.Sprint(x)}
		for _, c := range fig8Series {
			rep, err := runPipeline(ctx, ds, c, 32, p)
			if err != nil {
				return nil, err
			}
			row = append(row, ms(rep.Phase3))
		}
		t.AddRow(row...)
	}
	return t, nil
}

func registerFig9() {
	register(Experiment{
		ID:       "fig9a",
		Title:    "Skyline candidates vs data size (independent, d=5)",
		PaperRef: "Figure 9",
		Run: func(ctx context.Context, p Params) (*Table, error) {
			return runFig9(ctx, p, "fig9a", false)
		},
	})
	register(Experiment{
		ID:       "fig9b",
		Title:    "Skyline candidates vs dimensionality (independent, n=50k*scale)",
		PaperRef: "Figure 9",
		Run: func(ctx context.Context, p Params) (*Table, error) {
			return runFig9(ctx, p, "fig9b", true)
		},
	})
}

func runFig9(ctx context.Context, p Params, id string, byDim bool) (*Table, error) {
	p = p.normalize()
	series := []combo{
		{core.Grid, core.ZS, core.MergeZM},
		{core.Angle, core.ZS, core.MergeZM},
		{core.ZDG, core.ZS, core.MergeZM},
	}
	cols := []string{xLabel(byDim)}
	for _, c := range series {
		cols = append(cols, c.st.String()+" candidates")
	}
	cols = append(cols, "|skyline|")
	t := &Table{ID: id, Title: "phase-2 skyline candidate counts", Columns: cols}
	xs := []int{10, 50, 110}
	if byDim {
		xs = []int{2, 5, 8, 10}
	}
	for _, x := range xs {
		n, d := 50, 5
		if byDim {
			d = x
		} else {
			n = x
		}
		ds := gen.Synthetic(gen.Independent, p.n(n), d, p.Seed)
		row := []string{fmt.Sprint(x)}
		var skySize int
		for _, c := range series {
			rep, err := runPipeline(ctx, ds, c, 32, p)
			if err != nil {
				return nil, err
			}
			row = append(row, fmt.Sprint(rep.Candidates))
			skySize = rep.SkylineSize
		}
		row = append(row, fmt.Sprint(skySize))
		t.AddRow(row...)
	}
	return t, nil
}

func runFig10(ctx context.Context, p Params) (*Table, error) {
	p = p.normalize()
	t := &Table{
		ID:      "fig10",
		Title:   "ZDG+ZS+ZM while varying the group count M",
		Columns: []string{"M", "total (ms)", "candidates", "input-imbalance", "pruned-parts"},
		Notes:   "reconstructed experiment: §6.4 is missing from the available text",
	}
	ds := gen.Synthetic(gen.Independent, p.n(50), 5, p.Seed)
	for _, m := range []int{8, 16, 32, 64} {
		rep, err := runPipeline(ctx, ds, combo{core.ZDG, core.ZS, core.MergeZM}, m, p)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprint(m), ms(rep.Total), fmt.Sprint(rep.Candidates),
			fmt.Sprintf("%.2f", rep.InputBalance().Imbalance),
			fmt.Sprint(rep.PrunedPartitions))
	}
	return t, nil
}

func runFig11(ctx context.Context, p Params) (*Table, error) {
	p = p.normalize()
	t := &Table{
		ID:      "fig11",
		Title:   "Simulated real-world high-dimensional datasets, scale factor s",
		Columns: []string{"dataset", "dims", "s", "n", "Grid+ZS (ms)", "ZDG+ZS (ms)", "ZDG cands", "|skyline|"},
		Notes:   "NUS-WIDE/Flickr/DBpedia replaced by seeded simulators (DESIGN.md §6); reconstructed",
	}
	type dsSpec struct {
		name string
		base func(n int) *point.Dataset
		unit int
	}
	specs := []dsSpec{
		{"NUS-WIDE-like", func(n int) *point.Dataset { return gen.NUSWideLike(n, p.Seed) }, 60},
		{"Flickr-like", func(n int) *point.Dataset { return gen.FlickrLike(n, p.Seed) }, 30},
		{"DBpedia-like", func(n int) *point.Dataset { return gen.DBPediaLike(n, p.Seed) }, 40},
	}
	for _, spec := range specs {
		for _, s := range []int{5, 15, 25} {
			n := int(float64(spec.unit*s) * p.Scale)
			if n < 50 {
				n = 50
			}
			ds := spec.base(n)
			grid, err := runPipeline(ctx, ds, combo{core.Grid, core.ZS, core.MergeZS}, 16, p)
			if err != nil {
				return nil, err
			}
			zdg, err := runPipeline(ctx, ds, combo{core.ZDG, core.ZS, core.MergeZM}, 16, p)
			if err != nil {
				return nil, err
			}
			t.AddRow(spec.name, fmt.Sprint(ds.Dims), fmt.Sprint(s), fmt.Sprint(n),
				ms(grid.Total), ms(zdg.Total), fmt.Sprint(zdg.Candidates), fmt.Sprint(zdg.SkylineSize))
		}
	}
	return t, nil
}

func runFig12(ctx context.Context, p Params) (*Table, error) {
	p = p.normalize()
	t := &Table{
		ID:    "fig12",
		Title: "Scalability: Grid+ZS vs Angle+ZS vs MR-GPMRS vs ZDG+ZM",
		Columns: []string{"n (x1000*scale)", "Grid+ZS (ms)", "Angle+ZS (ms)", "MR-GPMRS (ms)", "ZDG+ZM (ms)",
			"ZDG+ZM cands", "MR-GPMRS cands", "MR-GPMRS dup"},
		Notes: "cands = local-skyline candidates entering the merge; dup = candidate copies MR-GPMRS sends to foreign merge reducers",
	}
	for _, x := range []int{2, 10, 20, 30} {
		ds := gen.Synthetic(gen.Independent, p.n(x), 8, p.Seed)
		grid, err := runPipeline(ctx, ds, combo{core.Grid, core.ZS, core.MergeZS}, 32, p)
		if err != nil {
			return nil, err
		}
		angle, err := runPipeline(ctx, ds, combo{core.Angle, core.ZS, core.MergeZS}, 32, p)
		if err != nil {
			return nil, err
		}
		gp, err := runGPMRS(ctx, ds, p)
		if err != nil {
			return nil, err
		}
		zdg, err := runPipeline(ctx, ds, combo{core.ZDG, core.ZS, core.MergeZM}, 32, p)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprint(x), ms(grid.Total), ms(angle.Total), ms(gp.Total), ms(zdg.Total),
			fmt.Sprint(zdg.Candidates), fmt.Sprint(gp.Candidates), fmt.Sprint(gp.DuplicatedRecords))
	}
	return t, nil
}

func runFig13(ctx context.Context, p Params) (*Table, error) {
	p = p.normalize()
	t := &Table{
		ID:    "fig13",
		Title: "Sampling ratio vs candidates / total time / preprocessing time (independent)",
		Columns: []string{"ratio",
			"Naive-Z cands", "ZHG cands", "ZDG cands",
			"Naive-Z ms", "ZHG ms", "ZDG ms",
			"Naive-Z prep", "ZHG prep", "ZDG prep"},
	}
	ds := gen.Synthetic(gen.Independent, p.n(50), 5, p.Seed)
	for _, ratio := range []float64{0.005, 0.01, 0.02, 0.04} {
		var cands, totals, preps []string
		for _, st := range []core.Strategy{core.NaiveZ, core.ZHG, core.ZDG} {
			cfg := core.Defaults()
			cfg.Strategy = st
			cfg.M = 32
			cfg.Workers = p.Workers
			cfg.Seed = p.Seed
			cfg.SampleRatio = ratio
			eng, err := core.NewEngine(cfg)
			if err != nil {
				return nil, err
			}
			_, rep, err := eng.Skyline(ctx, ds)
			if err != nil {
				return nil, err
			}
			cands = append(cands, fmt.Sprint(rep.Candidates))
			totals = append(totals, ms(rep.Total))
			preps = append(preps, ms(rep.Preprocess))
		}
		row := append([]string{fmt.Sprintf("%.3f", ratio)}, cands...)
		row = append(row, totals...)
		row = append(row, preps...)
		t.AddRow(row...)
	}
	return t, nil
}

func init() {
	register(Experiment{
		ID:       "fig4",
		Title:    "Sample skyline histogram and dominance power per Z-partition",
		PaperRef: "Figure 4 analysis",
		Run:      runFig4,
	})
}

func runFig4(ctx context.Context, p Params) (*Table, error) {
	p = p.normalize()
	t := &Table{
		ID:      "fig4",
		Title:   "per-partition sample skyline counts and dominance power (anti-correlated, d=4)",
		Columns: []string{"partition", "sample points", "sample skyline", "dominance power"},
	}
	ds := gen.Synthetic(gen.AntiCorrelated, p.n(10), 4, p.Seed)
	enc, err := zorder.NewUnitEncoder(4, 12)
	if err != nil {
		return nil, err
	}
	zc, err := partition.NewZCurve(enc, partition.EncodeSample(enc, ds.Points, zbtree.ZSearch(enc, 0, ds.Points, nil)), 16)
	if err != nil {
		return nil, err
	}
	infos := zc.Infos()
	_, power := grouping.DominanceMatrix(enc, infos)
	for i, in := range infos {
		t.AddRow(fmt.Sprint(in.ID), fmt.Sprint(in.Count), fmt.Sprint(in.SkyCount),
			fmt.Sprintf("%.5f", power[i]))
	}
	return t, nil
}
