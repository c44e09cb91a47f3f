// Package zskyline is a parallel skyline query processing library — a
// from-scratch Go reproduction of "Efficient Parallel Skyline Query
// Processing for High-Dimensional Data" (Tang, Yu, Aref, Malluhi,
// Ouzzani; ICDE 2019).
//
// A skyline query returns the points of a multidimensional dataset
// that are not dominated by any other point, where p dominates q when
// p is at least as good in every dimension and strictly better in one
// (smaller is better throughout this library).
//
// The library's centerpiece is the paper's three-phase pipeline:
// Z-order-curve partitioning with dominance-based partition grouping
// (ZDG), per-group skyline computation with Z-search over ZB-trees,
// and candidate merging with Z-merge — executed by an Engine on its own
// goroutine pool, the paper's two Hadoop jobs becoming map, reduce and
// merge tasks. The classic Grid, Angle,
// Random and MR-GPMRS schemes are included as baselines, as are the
// sequential BNL/sort-based algorithms.
//
// The same pipeline also runs as a shared-memory parallel solver and,
// via the skydist/skyworker commands, across real processes over TCP
// with fault tolerance (per-attempt deadlines, retries with backoff,
// worker resurrection with rule re-broadcast, optional hedging); all
// three executors produce identical skylines and identical trace
// structure. docs/OPERATIONS.md covers deploying the TCP form.
//
// Quick start:
//
//	eng, err := zskyline.New(zskyline.Defaults())
//	if err != nil { ... }
//	sky, report, err := eng.Skyline(ctx, dataset)
//
// See examples/ for runnable programs and DESIGN.md for the full
// system inventory.
package zskyline

import (
	"context"

	"zskyline/internal/core"
	"zskyline/internal/gen"
	"zskyline/internal/gpmrs"
	"zskyline/internal/point"
	"zskyline/internal/seq"
)

// Point is a d-dimensional data point; smaller coordinates are better.
type Point = point.Point

// Dataset is a collection of points of one dimensionality.
type Dataset = point.Dataset

// NewDataset validates points and wraps them in a Dataset.
func NewDataset(dims int, pts []Point) (*Dataset, error) {
	return point.NewDataset(dims, pts)
}

// Dominates reports whether p dominates q.
func Dominates(p, q Point) bool { return point.Dominates(p, q) }

// Config parameterizes the pipeline; see Defaults.
type Config = core.Config

// Report describes one pipeline run.
type Report = core.Report

// Engine executes the three-phase pipeline.
type Engine = core.Engine

// Strategy selects the phase-1 partitioning scheme.
type Strategy = core.Strategy

// Partitioning strategies.
const (
	Grid   = core.Grid
	Angle  = core.Angle
	Random = core.Random
	NaiveZ = core.NaiveZ
	ZHG    = core.ZHG
	ZDG    = core.ZDG
)

// LocalAlgo selects the per-group skyline algorithm.
type LocalAlgo = core.LocalAlgo

// Local algorithms.
const (
	SB = core.SB
	ZS = core.ZS
)

// MergeAlgo selects the phase-3 merging algorithm.
type MergeAlgo = core.MergeAlgo

// Merge algorithms.
const (
	MergeZM = core.MergeZM
	MergeZS = core.MergeZS
	MergeSB = core.MergeSB
)

// Defaults returns the paper's default configuration: ZDG partitioning,
// Z-search locally, Z-merge globally, M=32 groups.
func Defaults() Config { return core.Defaults() }

// New builds an Engine from cfg.
func New(cfg Config) (*Engine, error) { return core.NewEngine(cfg) }

// Skyline is the one-call convenience API: it runs the default
// three-phase pipeline over pts and returns the exact skyline.
func Skyline(ctx context.Context, dims int, pts []Point) ([]Point, error) {
	ds, err := point.NewDataset(dims, pts)
	if err != nil {
		return nil, err
	}
	cfg := core.Defaults()
	if n := ds.Len(); n < 10000 {
		// Small inputs need fewer groups and a denser sample.
		cfg.M = 8
		cfg.SampleRatio = 0.1
	}
	eng, err := core.NewEngine(cfg)
	if err != nil {
		return nil, err
	}
	sky, _, err := eng.Skyline(ctx, ds)
	return sky, err
}

// SequentialSkyline computes the skyline with the sort-based
// single-machine algorithm — handy as a reference and for small inputs.
func SequentialSkyline(pts []Point) []Point { return seq.SB(pts, nil) }

// GPMRSConfig parameterizes the MR-GPMRS baseline: Workers sizes the
// goroutine pool both of its jobs run on (job 1 has 2×Workers map
// tasks), Reducers the reduce-task count of each job.
type GPMRSConfig = gpmrs.Config

// GPMRSReport describes an MR-GPMRS run. Candidates and
// DuplicatedRecords are its communication: the rows entering the
// global merge and the copies its reducers would ship each other.
type GPMRSReport = gpmrs.Report

// GPMRSSkyline runs the MR-GPMRS baseline pipeline.
func GPMRSSkyline(ctx context.Context, ds *Dataset, cfg GPMRSConfig) ([]Point, *GPMRSReport, error) {
	return gpmrs.Skyline(ctx, ds, cfg)
}

// Distribution selects a synthetic workload for Generate.
type Distribution = gen.Distribution

// Synthetic distributions (Börzsönyi et al.'s standard benchmark set).
const (
	Independent    = gen.Independent
	Correlated     = gen.Correlated
	AntiCorrelated = gen.AntiCorrelated
)

// Generate produces n d-dimensional points of the given distribution,
// deterministically for a seed.
func Generate(dist Distribution, n, d int, seed int64) *Dataset {
	return gen.Synthetic(dist, n, d, seed)
}
