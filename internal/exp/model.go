package exp

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"zskyline/internal/analysis"
	"zskyline/internal/codec"
	"zskyline/internal/core"
	"zskyline/internal/gen"
	"zskyline/internal/metrics"
	"zskyline/internal/ooc"
	"zskyline/internal/partition"
	"zskyline/internal/point"
	"zskyline/internal/sample"
	"zskyline/internal/zbtree"
	"zskyline/internal/zorder"
)

func init() {
	register(Experiment{
		ID:       "abl-model",
		Title:    "§5.4 analytical model vs measured pruning",
		PaperRef: "§5.4 data pruning / Z-merge analysis",
		Run:      runAblModel,
	})
}

// runAblModel compares the paper's §5.4 pruning predictions against
// the pipeline's measured behaviour on all three distributions.
func runAblModel(ctx context.Context, p Params) (*Table, error) {
	p = p.normalize()
	t := &Table{
		ID:    "abl-model",
		Title: "predicted vs measured points removed before the merge phase",
		Columns: []string{"distribution", "n", "predicted pruned", "measured pruned",
			"V_t", "Q", "zmerge cost class"},
		Notes: "measured = mapper-filtered + (routed - candidates); prediction per §5.4 case analysis",
	}
	n := p.n(30)
	m := 16
	for _, dist := range []gen.Distribution{gen.Independent, gen.Correlated, gen.AntiCorrelated} {
		ds := gen.Synthetic(dist, n, 4, p.Seed)
		// Model inputs: sample-learned partitions.
		smp, err := sample.Ratio(ds.Points, sampleRatioFor(n), p.Seed)
		if err != nil {
			return nil, err
		}
		mins, maxs := mustBounds(ds)
		enc, err := zorder.NewEncoder(ds.Dims, bitsFor(ds.Dims), mins, maxs)
		if err != nil {
			return nil, err
		}
		zc, err := partition.NewZCurve(enc, smp, zbtree.ZSearch(enc, 0, smp, nil), m)
		if err != nil {
			return nil, err
		}
		vt := analysis.TotalDominanceVolume(enc, zc.Infos())
		// V_t is computed over the sample; scale densities via Q.
		q, err := analysis.DataVolume(ds)
		if err != nil {
			return nil, err
		}
		pred, err := analysis.PredictPruning(dist.String(), n, m, vt, q)
		if err != nil {
			return nil, err
		}
		cost, err := analysis.PredictZMergeCost(dist.String(), n/10, m, ds.Dims, 16)
		if err != nil {
			return nil, err
		}

		// Measurement: full pipeline run.
		rep, err := runPipeline(ctx, ds, combo{core.ZDG, core.ZS, core.MergeZM}, m, p)
		if err != nil {
			return nil, err
		}
		measured := rep.Filtered + int64(n) - rep.Filtered - int64(rep.Candidates)
		t.AddRow(dist.String(), fmt.Sprint(n),
			fmt.Sprintf("%.0f", pred.PrunedPoints), fmt.Sprint(measured),
			fmt.Sprintf("%.4f", vt), fmt.Sprintf("%.4f", q), cost.Class)
	}
	return t, nil
}

func init() {
	register(Experiment{
		ID:       "abl-skew",
		Title:    "Load balance under data skew: Grid vs Angle vs Z-curve",
		PaperRef: "§3.3 unbalanced partitioning",
		Run:      runAblSkew,
	})
}

// runAblSkew reproduces the paper's data-skew motivation directly: on
// clustered data, equal-width grid cells receive wildly unequal point
// counts while equal-frequency Z-curve cuts stay balanced. Cells are
// the paper's |P|/M ideal; the imbalance column is max/mean.
func runAblSkew(ctx context.Context, p Params) (*Table, error) {
	p = p.normalize()
	t := &Table{
		ID:      "abl-skew",
		Title:   "partition imbalance (max/mean) on clustered data, M=32",
		Columns: []string{"clusters", "spread", "Grid", "Angle", "Z-curve"},
	}
	n := p.n(40)
	const m = 32
	for _, tc := range []struct {
		clusters int
		spread   float64
	}{{2, 0.02}, {4, 0.05}, {8, 0.10}} {
		ds := gen.Clustered(n, 6, tc.clusters, tc.spread, p.Seed)
		smp, err := sample.Ratio(ds.Points, sampleRatioFor(n), p.Seed)
		if err != nil {
			return nil, err
		}
		imb := func(assign func(pt point.Point) int, parts int) string {
			counts := make([]int, parts)
			for _, pt := range ds.Points {
				counts[assign(pt)]++
			}
			return fmt.Sprintf("%.2f", metrics.NewBalance(counts).Imbalance)
		}
		grid, err := partition.NewGrid(smp, m)
		if err != nil {
			return nil, err
		}
		angle, err := partition.NewAngle(smp, m)
		if err != nil {
			return nil, err
		}
		mins, maxs := mustBounds(ds)
		enc, err := zorder.NewEncoder(ds.Dims, bitsFor(ds.Dims), mins, maxs)
		if err != nil {
			return nil, err
		}
		zc, err := partition.NewZCurve(enc, smp, zbtree.ZSearch(enc, 0, smp, nil), m)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprint(tc.clusters), fmt.Sprintf("%.2f", tc.spread),
			imb(grid.Assign, grid.N()), imb(angle.Assign, angle.N()), imb(zc.Assign, zc.N()))
	}
	_ = ctx
	return t, nil
}

func init() {
	register(Experiment{
		ID:       "abl-stragglers",
		Title:    "Straggler resistance: reduce-task balance under a slow worker",
		PaperRef: "§3.3 / §4.2 straggler claim",
		Run:      runAblStragglers,
	})
}

// runAblStragglers reproduces the paper's straggler argument as counts:
// when one reduce task receives far more input, or keeps far more
// candidates, than its peers, it becomes the phase straggler. The table
// reports, per strategy, the max/mean ratios of the paper's two balance
// goals — rows routed per group and candidates per group — the
// intrinsic imbalance that a slow node then amplifies. Grid
// partitioning on skewed (clustered) data is the pathological row.
func runAblStragglers(ctx context.Context, p Params) (*Table, error) {
	p = p.normalize()
	t := &Table{
		ID:      "abl-stragglers",
		Title:   "reduce-task imbalance (max/mean): clustered data, M=16",
		Columns: []string{"strategy", "reduce-input imbalance", "candidate imbalance"},
	}
	ds := gen.Clustered(p.n(40), 5, 3, 0.05, p.Seed)
	for _, st := range []core.Strategy{core.Grid, core.Angle, core.NaiveZ, core.ZHG, core.ZDG} {
		cfg := core.Defaults()
		cfg.Strategy = st
		cfg.M = 16
		cfg.Seed = p.Seed
		cfg.SampleRatio = sampleRatioFor(ds.Len())
		cfg.Workers = p.Workers
		eng, err := core.NewEngine(cfg)
		if err != nil {
			return nil, err
		}
		_, rep, err := eng.Skyline(ctx, ds)
		if err != nil {
			return nil, err
		}
		t.AddRow(st.String(),
			fmt.Sprintf("%.2f", rep.InputBalance().Imbalance),
			fmt.Sprintf("%.2f", rep.CandidateBalance().Imbalance))
	}
	return t, nil
}

func init() {
	register(Experiment{
		ID:       "abl-ooc",
		Title:    "Out-of-core streaming vs in-memory pipeline",
		PaperRef: "deployment study (HDFS-resident inputs)",
		Run:      runAblOOC,
	})
}

// runAblOOC compares the in-memory ZDG pipeline against the streaming
// maintainer over the same data persisted as a ZSKY file, at several
// batch sizes. Streaming holds only the skyline plus one batch in
// memory — the regime for inputs larger than RAM.
func runAblOOC(ctx context.Context, p Params) (*Table, error) {
	p = p.normalize()
	t := &Table{
		ID:      "abl-ooc",
		Title:   "in-memory vs streaming (anti-correlated, d=4)",
		Columns: []string{"mode", "batch", "time (ms)", "skyline"},
	}
	ds := gen.Synthetic(gen.AntiCorrelated, p.n(30), 4, p.Seed)
	dir, err := os.MkdirTemp("", "skyooc")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "data.zsky")
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := codec.WriteBinary(f, ds); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}

	start := time.Now()
	rep, err := runPipeline(ctx, ds, combo{core.ZDG, core.ZS, core.MergeZM}, 16, p)
	if err != nil {
		return nil, err
	}
	t.AddRow("in-memory ZDG", "-", ms(time.Since(start)), fmt.Sprint(rep.SkylineSize))

	for _, batch := range []int{1024, 8192, 65536} {
		start := time.Now()
		sky, err := ooc.SkylineFile(path, ooc.Options{BatchSize: batch})
		if err != nil {
			return nil, err
		}
		t.AddRow("streaming", fmt.Sprint(batch), ms(time.Since(start)), fmt.Sprint(len(sky)))
	}
	return t, nil
}
