package exp

import (
	"context"
	"fmt"

	"zskyline/internal/core"
	"zskyline/internal/gen"
	"zskyline/internal/point"
)

// The ablation experiments quantify the design choices DESIGN.md calls
// out: the SZB mapper filter, the partition expansion factor delta,
// the Z-order grid resolution, the ZB-tree fanout, and worker scaling.
func init() {
	register(Experiment{
		ID:       "abl-szb",
		Title:    "Ablation: SZB-tree mapper filter on/off (ZDG)",
		PaperRef: "Algorithm 3 design choice",
		Run:      runAblSZB,
	})
	register(Experiment{
		ID:       "abl-delta",
		Title:    "Ablation: partition expansion factor delta",
		PaperRef: "§4.2 design choice",
		Run:      runAblDelta,
	})
	register(Experiment{
		ID:       "abl-bits",
		Title:    "Ablation: Z-order bits per dimension",
		PaperRef: "§3.2 design choice",
		Run:      runAblBits,
	})
	register(Experiment{
		ID:       "abl-fanout",
		Title:    "Ablation: ZB-tree fanout",
		PaperRef: "§3.2 design choice",
		Run:      runAblFanout,
	})
	register(Experiment{
		ID:       "abl-workers",
		Title:    "Ablation: worker scaling (speedup curve)",
		PaperRef: "§6.5 substrate behaviour",
		Run:      runAblWorkers,
	})
}

func ablConfig(p Params, ds int) core.Config {
	cfg := core.Defaults()
	cfg.M = 32
	cfg.Workers = p.Workers
	cfg.Seed = p.Seed
	cfg.SampleRatio = sampleRatioFor(ds)
	return cfg
}

func runAbl(ctx context.Context, cfg core.Config, p Params, n, d int) (*core.Report, error) {
	return runAblOn(ctx, cfg, gen.Synthetic(gen.Independent, n, d, p.Seed))
}

func runAblOn(ctx context.Context, cfg core.Config, ds *point.Dataset) (*core.Report, error) {
	eng, err := core.NewEngine(cfg)
	if err != nil {
		return nil, err
	}
	_, rep, err := eng.Skyline(ctx, ds)
	return rep, err
}

// runAblSZB runs ZDG with the SZB filter on and off, on independent
// d = 5 data and on anti-correlated d = 8 data, where most of the
// sample is on its skyline and the filter probes a few representatives
// of it.
func runAblSZB(ctx context.Context, p Params) (*Table, error) {
	p = p.normalize()
	t := &Table{ID: "abl-szb", Title: "SZB filter contribution",
		Columns: []string{"data", "filter", "filter rows", "total (ms)", "candidates", "routed rows", "filtered", "dominance tests"}}
	n := p.n(50)
	for _, data := range []struct {
		dist gen.Distribution
		d    int
	}{{gen.Independent, 5}, {gen.AntiCorrelated, 8}} {
		ds := gen.Synthetic(data.dist, n, data.d, p.Seed)
		for _, off := range []bool{false, true} {
			cfg := ablConfig(p, n)
			cfg.DisableSZBFilter = off
			rep, err := runAblOn(ctx, cfg, ds)
			if err != nil {
				return nil, err
			}
			label := "on"
			if off {
				label = "off"
			}
			t.AddRow(fmt.Sprintf("%v d=%d", data.dist, data.d), label, fmt.Sprint(rep.FilterRows),
				ms(rep.Total), fmt.Sprint(rep.Candidates), fmt.Sprint(int64(n)-rep.Filtered),
				fmt.Sprint(rep.Filtered), fmt.Sprint(rep.Tally.DominanceTests))
		}
	}
	return t, nil
}

func runAblDelta(ctx context.Context, p Params) (*Table, error) {
	p = p.normalize()
	t := &Table{ID: "abl-delta", Title: "partition expansion factor",
		Columns: []string{"delta", "partitions", "total (ms)", "candidates", "preprocess (ms)"}}
	n := p.n(50)
	for _, delta := range []int{1, 2, 4, 8} {
		cfg := ablConfig(p, n)
		cfg.Delta = delta
		rep, err := runAbl(ctx, cfg, p, n, 5)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprint(delta), fmt.Sprint(rep.Partitions), ms(rep.Total),
			fmt.Sprint(rep.Candidates), ms(rep.Preprocess))
	}
	return t, nil
}

func runAblBits(ctx context.Context, p Params) (*Table, error) {
	p = p.normalize()
	t := &Table{ID: "abl-bits", Title: "Z-order grid resolution",
		Columns: []string{"bits", "total (ms)", "candidates", "region tests", "dominance tests"}}
	n := p.n(50)
	for _, bits := range []int{4, 8, 16, 24} {
		cfg := ablConfig(p, n)
		cfg.Bits = bits
		rep, err := runAbl(ctx, cfg, p, n, 5)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprint(bits), ms(rep.Total), fmt.Sprint(rep.Candidates),
			fmt.Sprint(rep.Tally.RegionTests), fmt.Sprint(rep.Tally.DominanceTests))
	}
	return t, nil
}

func runAblFanout(ctx context.Context, p Params) (*Table, error) {
	p = p.normalize()
	t := &Table{ID: "abl-fanout", Title: "ZB-tree fanout",
		Columns: []string{"fanout", "total (ms)", "region tests", "dominance tests"}}
	n := p.n(50)
	for _, fanout := range []int{4, 8, 16, 32, 64} {
		cfg := ablConfig(p, n)
		cfg.Fanout = fanout
		rep, err := runAbl(ctx, cfg, p, n, 5)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprint(fanout), ms(rep.Total),
			fmt.Sprint(rep.Tally.RegionTests), fmt.Sprint(rep.Tally.DominanceTests))
	}
	return t, nil
}

func runAblWorkers(ctx context.Context, p Params) (*Table, error) {
	p = p.normalize()
	t := &Table{ID: "abl-workers", Title: "speedup vs worker count",
		Columns: []string{"workers", "total (ms)", "phase2 (ms)"}}
	n := p.n(80)
	for _, w := range []int{1, 2, 4, 8, 16} {
		pw := p
		pw.Workers = w
		cfg := ablConfig(pw, n)
		rep, err := runAbl(ctx, cfg, pw, n, 5)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprint(w), ms(rep.Total), ms(rep.Phase2))
	}
	return t, nil
}
