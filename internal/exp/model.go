package exp

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"zskyline/internal/codec"
	"zskyline/internal/core"
	"zskyline/internal/gen"
	"zskyline/internal/metrics"
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
			"rationale", "V_t", "Q", "zmerge cost class", "zmerge operations"},
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
		enc, err := zorder.NewEncoder(ds.Dims, zorder.DefaultBits(ds.Dims), mins, maxs)
		if err != nil {
			return nil, err
		}
		zc, err := partition.NewZCurve(enc, partition.EncodeSample(enc, smp, zbtree.ZSearch(enc, 0, smp, nil)), m)
		if err != nil {
			return nil, err
		}
		vt := totalDominanceVolume(enc, zc.Infos())
		// V_t is computed over the sample; scale densities via Q.
		q, err := dataVolume(ds)
		if err != nil {
			return nil, err
		}
		pred, err := predictPruning(dist.String(), n, m, vt, q)
		if err != nil {
			return nil, err
		}
		cost, err := predictZMergeCost(dist.String(), n/10, m, ds.Dims, 16)
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
			fmt.Sprintf("%.0f", pred.PrunedPoints), fmt.Sprint(measured), pred.Rationale,
			fmt.Sprintf("%.4f", vt), fmt.Sprintf("%.4f", q), cost.Class, fmt.Sprintf("%.0f", cost.Operations))
	}
	return t, nil
}

// The paper's §5.4 analytical model, which abl-model checks the
// measured pruning against: the total dominance volume of a grouped
// partitioning, the predicted number of points pruned before the merge
// phase under each data distribution, and the predicted Z-merge cost
// class.

// totalDominanceVolume computes V_t = 1/2 * sum_{i,j} V_dom(Pt_i,
// Pt_j) over the partitions' sample extents (§5.4).
func totalDominanceVolume(enc *zorder.Encoder, infos []partition.Info) float64 {
	total := 0.0
	for i := range infos {
		for j := i + 1; j < len(infos); j++ {
			total += enc.DominanceVolume(infos[i].Extent, infos[j].Extent)
		}
	}
	return total
}

// dataVolume computes Q, the volume of the dataset's bounding box
// (§5.4's denominator for the independent case).
func dataVolume(ds *point.Dataset) (float64, error) {
	mins, maxs, err := ds.Bounds()
	if err != nil {
		return 0, err
	}
	q := 1.0
	for k := range mins {
		side := maxs[k] - mins[k]
		if side <= 0 {
			// Degenerate dimension contributes no volume but should not
			// zero out the estimate; treat as unit thickness.
			side = 1
		}
		q *= side
	}
	return q, nil
}

// prediction is the §5.4 pruning estimate for one distribution.
type prediction struct {
	// PrunedPoints is n_p, the predicted number of points removed
	// before the shuffle.
	PrunedPoints float64
	// Rationale names the §5.4 case applied.
	Rationale string
}

// predictPruning applies §5.4's case analysis.
//
//   - independent: n_p = n * V_t / Q, points uniform over the box;
//   - correlated: one skyline point per group survives, n_p = n - M;
//   - anti-correlated: between the extremes 0 (every point is skyline)
//     and n - M (one skyline per group); the midpoint is reported and
//     the bounds returned alongside.
func predictPruning(dist string, n, m int, vt, q float64) (prediction, error) {
	fn := float64(n)
	switch dist {
	case "independent":
		if q <= 0 {
			return prediction{}, fmt.Errorf("abl-model: non-positive data volume")
		}
		np := fn * vt / q
		if np > fn {
			np = fn
		}
		return prediction{PrunedPoints: np, Rationale: "uniform density: n*Vt/Q"}, nil
	case "correlated":
		return prediction{PrunedPoints: fn - float64(m), Rationale: "one skyline point per group survives"}, nil
	case "anti-correlated":
		return prediction{PrunedPoints: (fn - float64(m)) / 2,
			Rationale: "midpoint of the extremes [0, n-M]"}, nil
	default:
		return prediction{}, fmt.Errorf("abl-model: unknown distribution %q", dist)
	}
}

// zMergeCost classifies the §5.4 Z-merge processing-time estimate.
type zMergeCost struct {
	// Operations approximates the number of UDominate invocations times
	// their per-call cost.
	Operations float64
	// Class is the asymptotic form used.
	Class string
}

// predictZMergeCost applies §5.4's runtime analysis: for independent
// and anti-correlated data most candidates are skyline points and the
// cost is O(n_hat * d * log_f(n_hat)); for correlated data it is
// O(M * d * log_f(|S|)).
func predictZMergeCost(dist string, candidates, m, d, fanout int) (zMergeCost, error) {
	if fanout < 2 {
		fanout = 2
	}
	logf := func(x float64) float64 {
		if x < 2 {
			return 1
		}
		return math.Log(x) / math.Log(float64(fanout))
	}
	nhat := float64(candidates)
	switch dist {
	case "independent", "anti-correlated":
		return zMergeCost{
			Operations: nhat * float64(d) * logf(nhat),
			Class:      "O(n_hat * d * log_f n_hat)",
		}, nil
	case "correlated":
		s := nhat / float64(m)
		if s < 1 {
			s = 1
		}
		return zMergeCost{
			Operations: float64(m) * float64(d) * logf(s),
			Class:      "O(M * d * log_f |S|)",
		}, nil
	default:
		return zMergeCost{}, fmt.Errorf("abl-model: unknown distribution %q", dist)
	}
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
		enc, err := zorder.NewEncoder(ds.Dims, zorder.DefaultBits(ds.Dims), mins, maxs)
		if err != nil {
			return nil, err
		}
		zc, err := partition.NewZCurve(enc, partition.EncodeSample(enc, smp, zbtree.ZSearch(enc, 0, smp, nil)), m)
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
		Title:    "Out-of-core file runs vs in-memory pipeline",
		PaperRef: "deployment study (HDFS-resident inputs)",
		Run:      runAblOOC,
	})
}

// runAblOOC compares the in-memory ZDG pipeline against the same
// pipeline run over the data persisted as a ZSKY file
// (Engine.SkylineFile), at several map-task sizes. The file run holds
// one wave of map tasks, the routed rows and phase 3 over the
// candidates in memory, never the whole input — the regime for inputs
// larger than RAM.
func runAblOOC(ctx context.Context, p Params) (*Table, error) {
	p = p.normalize()
	t := &Table{
		ID:      "abl-ooc",
		Title:   "in-memory vs file in passes (anti-correlated, d=4)",
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

	zdg := combo{core.ZDG, core.ZS, core.MergeZM}
	start := time.Now()
	rep, err := runPipeline(ctx, ds, zdg, 16, p)
	if err != nil {
		return nil, err
	}
	t.AddRow("in-memory ZDG", "-", ms(time.Since(start)), fmt.Sprint(rep.SkylineSize))

	for _, batch := range []int{1024, 8192, 65536} {
		cfg := pipelineConfig(ds, zdg, 16, p)
		cfg.ChunkSize = batch
		eng, err := core.NewEngine(cfg)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		sky, _, err := eng.SkylineFile(ctx, path)
		if err != nil {
			return nil, err
		}
		t.AddRow("file in passes", fmt.Sprint(batch), ms(time.Since(start)), fmt.Sprint(len(sky)))
	}
	return t, nil
}
