// Package core runs the paper's three-phase parallel skyline pipeline
// (Figure 5) with the paper's configuration surface: strategy, local
// and merge algorithm, M, delta, sampling ratio. The phase logic itself
// — rule learning, mapper filter/routing, local skylines, and candidate
// merging — lives once in internal/plan; an Engine lowers its Config to
// a plan.Spec and runs it with plan.Run on a plan.LocalExec it owns:
//
//	Phase 1  (§5.1)  master-side preprocessing: reservoir sample, learn
//	                 the partitioning rule (Grid / Angle / Random /
//	                 Naive-Z / ZHG / ZDG), compute the sample skyline
//	                 and its ZB-tree (the SZB-tree).
//	Phase 2  (§5.2)  map tasks filter points against the SZB-tree and
//	                 route them partition->group; one reduce task per
//	                 group runs a local skyline algorithm (SB or ZS),
//	                 emitting skyline candidates.
//	Phase 3  (§5.3)  merge candidates with Z-merge (ZM), or with the
//	                 SB / ZS baselines the evaluation compares against.
//
// The Engine is the library's primary public entry point (re-exported
// by the root zskyline package).
package core

import (
	"context"
	"fmt"

	"zskyline/internal/dominance"
	"zskyline/internal/metrics"
	"zskyline/internal/plan"
	"zskyline/internal/point"
	"zskyline/internal/zbtree"
)

// Strategy selects the partitioning/grouping scheme of phase 1.
type Strategy = plan.Strategy

// The partitioning strategies of the paper's evaluation (§6.1).
const (
	// Grid is classic equal-width grid partitioning [9][11].
	Grid = plan.Grid
	// Angle is angle-based partitioning [8].
	Angle = plan.Angle
	// Random is hash partitioning [18].
	Random = plan.Random
	// NaiveZ is plain Z-order equal-frequency partitioning (§4.1).
	NaiveZ = plan.NaiveZ
	// ZHG is Z-order partitioning plus Heuristic Grouping (§4.2).
	ZHG = plan.ZHG
	// ZDG is Z-order partitioning plus Dominance-based Grouping (§4.3),
	// the paper's headline strategy.
	ZDG = plan.ZDG
)

// LocalAlgo selects the per-group skyline algorithm of phase 2.
type LocalAlgo = plan.LocalAlgo

// Local skyline algorithms (§6.1).
const (
	// SB sorts by coordinate sum then filters (block-nested-loops).
	SB = plan.SB
	// ZS is Z-search over a ZB-tree, the state of the art.
	ZS = plan.ZS
)

// MergeAlgo selects the phase-3 candidate merging algorithm.
type MergeAlgo = plan.MergeAlgo

// Merge algorithms compared in §6.3.
const (
	// MergeZM is the paper's Z-merge (Algorithm 4).
	MergeZM = plan.MergeZM
	// MergeZS recomputes the skyline of all candidates with Z-search.
	MergeZS = plan.MergeZS
	// MergeSB recomputes it with the sort-based filter.
	MergeSB = plan.MergeSB
)

// Config parameterizes an Engine. The zero value is not valid; use
// Defaults() or fill the fields explicitly.
type Config struct {
	// Strategy is the phase-1 partitioning scheme.
	Strategy Strategy
	// Local is the per-group skyline algorithm of phase 2.
	Local LocalAlgo
	// Merge is the phase-3 candidate merging algorithm.
	Merge MergeAlgo
	// M is the target number of groups (the paper's M); also the grid /
	// angle / random partition count for the baselines.
	M int
	// Delta is the partition expansion factor delta >= 1: Z-order
	// strategies first cut the curve into M*Delta partitions (§4.2).
	Delta int
	// SampleRatio is the reservoir sampling ratio of phase 1 (§6.6
	// varies it between 0.005 and 0.04).
	SampleRatio float64
	// Bits is the Z-order grid resolution per dimension.
	Bits int
	// Fanout is the ZB-tree node capacity.
	Fanout int
	// Workers is how many tasks the engine's pool runs at once.
	Workers int
	// MapSplits is the number of map tasks; 0 selects 2x workers.
	MapSplits int
	// Seed drives sampling (and nothing else; the pipeline is
	// deterministic given data and seed).
	Seed int64
	// DisableSZBFilter turns off the Algorithm 3 mapper filter against
	// the sample-skyline ZB-tree. Used by the ablation experiments to
	// quantify the filter's contribution; leave false for normal runs.
	DisableSZBFilter bool
	// Dominance selects the dominance relation the pipeline computes
	// under (see internal/dominance); the zero value is classic Pareto
	// dominance.
	Dominance dominance.Descriptor
}

// Defaults returns the configuration used throughout the experiments:
// ZDG + ZS + ZM, M=32 groups, delta=4, 2% sample, 16-bit grids.
func Defaults() Config {
	return Config{
		Strategy:    ZDG,
		Local:       ZS,
		Merge:       MergeZM,
		M:           32,
		Delta:       4,
		SampleRatio: 0.02,
		Bits:        16,
		Fanout:      zbtree.DefaultFanout,
		Workers:     8,
	}
}

// spec lowers the config to the backend-agnostic plan parameters.
func (c *Config) spec() *plan.Spec {
	return &plan.Spec{
		Strategy:         c.Strategy,
		Local:            c.Local,
		Merge:            c.Merge,
		M:                c.M,
		Delta:            c.Delta,
		SampleRatio:      c.SampleRatio,
		Bits:             c.Bits,
		Fanout:           c.Fanout,
		Seed:             c.Seed,
		DisableSZBFilter: c.DisableSZBFilter,
		MapTasks:         c.splits(),
		Dominance:        c.Dominance,
	}
}

// splits resolves the map task count (0 selects 2x workers).
func (c *Config) splits() int {
	if c.MapSplits > 0 {
		return c.MapSplits
	}
	return 2 * c.Workers
}

func (c *Config) validate() error {
	if err := c.spec().Validate(); err != nil {
		return err
	}
	if c.Workers < 1 {
		return fmt.Errorf("core: Workers must be >= 1, got %d", c.Workers)
	}
	return nil
}

// Report describes one pipeline run: the plan's shared report and the
// run's dominance, region and pruning tally.
type Report struct {
	plan.Report
	// Tally aggregates dominance tests, region tests and pruned points.
	Tally metrics.Snapshot
}

// Engine executes the three-phase pipeline on its own worker pool.
type Engine struct {
	cfg  Config
	exec *plan.LocalExec
}

// NewEngine validates cfg and builds an engine.
func NewEngine(cfg Config) (*Engine, error) {
	if cfg.Fanout <= 0 {
		cfg.Fanout = zbtree.DefaultFanout
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &Engine{cfg: cfg, exec: plan.NewLocalExec(cfg.Workers)}, nil
}

// Skyline computes the exact skyline of ds with the configured
// strategy and returns it with a full Report.
func (e *Engine) Skyline(ctx context.Context, ds *point.Dataset) ([]point.Point, *Report, error) {
	tally := &metrics.Tally{}
	sky, rep, err := plan.Run(ctx, e.cfg.spec(), ds, e.exec, tally)
	if err != nil {
		return nil, nil, err
	}
	return sky, &Report{Report: *rep, Tally: tally.Snapshot()}, nil
}
