package zskyline

import (
	"context"
	"fmt"
	"io"

	"zskyline/internal/approx"
	"zskyline/internal/core"
	"zskyline/internal/dist"
	"zskyline/internal/dominance"
	"zskyline/internal/estimate"
	"zskyline/internal/maintain"
	"zskyline/internal/parallel"
	"zskyline/internal/point"
	"zskyline/internal/rank"
	"zskyline/internal/seq"
	"zskyline/internal/subspace"
	"zskyline/internal/window"
	"zskyline/internal/zorder"
)

// --- Incremental maintenance ---

// Maintainer keeps the skyline of a stream of inserted points; see
// NewMaintainer.
type Maintainer = maintain.Maintainer

// NewMaintainer creates an incremental skyline maintainer for
// dims-dimensional points over the box [mins, maxs]. Each Insert batch
// is reduced to its skyline and Z-merged into the running result, so
// cost tracks skyline sizes rather than stream length.
func NewMaintainer(dims, bits int, mins, maxs []float64) (*Maintainer, error) {
	return maintain.New(dims, bits, mins, maxs)
}

// NewUnitMaintainer is NewMaintainer over the unit hypercube.
func NewUnitMaintainer(dims, bits int) (*Maintainer, error) {
	return maintain.NewUnit(dims, bits)
}

// --- Ranking ---

// Scored pairs a point with its ranking score.
type Scored = rank.Scored

// TopKByScore ranks points by a user scoring function (smaller is
// better) and returns the best k. With a monotone scorer (such as
// WeightedSum), ranking the skyline is lossless: the global best point
// is always a skyline point.
func TopKByScore(pts []Point, k int, score func(Point) float64) []Scored {
	return rank.TopKByScore(pts, k, score)
}

// WeightedSum builds a monotone linear scorer from non-negative
// weights.
func WeightedSum(weights []float64) (func(Point) float64, error) {
	return rank.WeightedSum(weights)
}

// TopKByDominance ranks skyline points by how many points of data each
// dominates, descending, using ZB-tree pruning.
func TopKByDominance(sky, data []Point, dims, bits, k int) ([]Scored, error) {
	ds := point.Dataset{Dims: dims, Points: data}
	mins, maxs, err := ds.Bounds()
	if err != nil {
		return nil, err
	}
	enc, err := zorder.NewEncoder(dims, bits, mins, maxs)
	if err != nil {
		return nil, err
	}
	return rank.TopKByDominance(sky, data, enc, k, nil), nil
}

// --- Distributed deployment ---

// WorkerServer is a TCP skyline worker; see StartWorker.
type WorkerServer = dist.WorkerServer

// StartWorker launches a distributed skyline worker listening on addr
// ("127.0.0.1:0" picks an ephemeral port). Pair with NewCoordinator.
func StartWorker(addr string) (*WorkerServer, error) {
	return dist.StartWorker(addr)
}

// Coordinator drives distributed skyline queries across TCP workers.
type Coordinator = dist.Coordinator

// CoordinatorConfig parameterizes a distributed run.
type CoordinatorConfig = dist.CoordinatorConfig

// DefaultCoordinatorConfig mirrors Defaults for distributed runs.
func DefaultCoordinatorConfig() CoordinatorConfig {
	return dist.DefaultCoordinatorConfig()
}

// NewCoordinator dials the given workers and returns a coordinator.
func NewCoordinator(cfg CoordinatorConfig, workerAddrs []string) (*Coordinator, error) {
	return dist.NewCoordinator(cfg, workerAddrs)
}

// DistributedSkyline is the one-call distributed API: dial workers,
// run the pipeline, hang up. The coordinator makes one group per
// worker; an input under smallInput rows takes RunQuery's denser sample
// and group cap.
func DistributedSkyline(ctx context.Context, ds *Dataset, workerAddrs []string) ([]Point, error) {
	cfg := dist.DefaultCoordinatorConfig()
	if ds != nil && ds.Len() < smallInput {
		cfg.M = min(len(workerAddrs), smallInputGroups)
		cfg.SampleRatio = defaultConfig(ds.Len()).SampleRatio
	}
	coord, err := dist.NewCoordinator(cfg, workerAddrs)
	if err != nil {
		return nil, err
	}
	defer coord.Close()
	sky, _, err := coord.Skyline(ctx, ds)
	return sky, err
}

// --- Dominance variants ---

// DominanceProvider is a pluggable dominance relation; see package
// internal/dominance for the capability contract implementations obey.
type DominanceProvider = dominance.Provider

// DominanceDescriptor is the serializable description of a dominance
// relation. The zero value selects classic Pareto dominance; set it on
// Config.Dominance, ParallelOptions.Dominance,
// CoordinatorConfig.Dominance, or Query.Dominance to run any executor
// under a variant relation.
type DominanceDescriptor = dominance.Descriptor

// ParseDominance parses a dominance-relation spelling:
//
//	pareto                   classic Pareto dominance
//	flex:w1,w2,...;v1,v2,...  F-dominance under a family of weight vectors
//	kdom:k                   k-dominance (Chan et al.)
//	robust:rho               dominance by margin rho in every dimension
func ParseDominance(s string) (DominanceDescriptor, error) {
	return dominance.ParseDescriptor(s)
}

// SkylineUnder computes the exact skyline of pts under the described
// relation with the sequential sort-filter algorithm — the oracle the
// parallel executors are tested against — answered with the caller's
// own points. Points NewDataset rejects (of different widths, or
// holding NaN) are an error.
func SkylineUnder(desc DominanceDescriptor, pts []Point) ([]Point, error) {
	prov, err := desc.Provider()
	if err != nil {
		return nil, err
	}
	return skylineUnder(prov, pts)
}

// skylineUnder is SkylineUnder for a resolved relation.
func skylineUnder(prov DominanceProvider, pts []Point) ([]Point, error) {
	if err := checkPoints(pts); err != nil || len(pts) == 0 {
		return nil, err
	}
	rows := seq.SBRows(prov, point.BlockOf(len(pts[0]), pts), nil)
	out := make([]Point, len(rows))
	for i, r := range rows {
		out[i] = pts[r]
	}
	return out, nil
}

// checkPoints is NewDataset's check on pts at the first point's width:
// nil for no points or for valid ones, else an error naming the first
// point of another width or holding NaN.
func checkPoints(pts []Point) error {
	if len(pts) == 0 {
		return nil
	}
	_, err := point.NewDataset(len(pts[0]), pts)
	return err
}

// NewMaintainerUnder is NewMaintainer under a variant relation. Only
// transitive relations support incremental maintenance; k-dominance is
// rejected.
func NewMaintainerUnder(desc DominanceDescriptor, dims, bits int, mins, maxs []float64) (*Maintainer, error) {
	prov, err := desc.Provider()
	if err != nil {
		return nil, err
	}
	return maintain.NewUnder(prov, dims, bits, mins, maxs)
}

// NewWindowSkylineUnder is NewWindowSkyline under a variant relation;
// any irreflexive relation is supported (non-transitive ones recompute
// from the retained window on every push).
func NewWindowSkylineUnder(desc DominanceDescriptor, capacity, dims, bits int, mins, maxs []float64) (*WindowSkyline, error) {
	prov, err := desc.Provider()
	if err != nil {
		return nil, err
	}
	return window.NewUnder(prov, capacity, dims, bits, mins, maxs)
}

// --- k-dominant skylines ---

// KDominates reports whether p k-dominates q: no worse on at least k
// dimensions and strictly better on one of them. It is false for an
// invalid k (outside [1, dims]) and for points of different widths.
func KDominates(p, q Point, k int) bool {
	prov, err := dominance.NewKDom(k)
	return err == nil && prov.Dominates(p, q)
}

// KDominantSkyline computes the k-dominant skyline — the standard way
// to shrink unmanageably large high-dimensional skylines. k-dominance
// is not transitive, so the candidate window is closed by a
// verification scan against the full input. k == dims reproduces the
// classic skyline; k outside [1, dims] is an error, and so are points
// NewDataset rejects.
func KDominantSkyline(pts []Point, k int) ([]Point, error) {
	if len(pts) == 0 {
		return nil, nil
	}
	if d := len(pts[0]); k > d {
		return nil, fmt.Errorf("zskyline: k must be in [1,%d], got %d", d, k)
	}
	prov, err := dominance.NewKDom(k)
	if err != nil {
		return nil, err
	}
	return skylineUnder(prov, pts)
}

// --- Cardinality estimation ---

// SkylineEstimate is a sample-based skyline-size prediction.
type SkylineEstimate = estimate.Estimate

// EstimateSkylineSize predicts |skyline(pts)| from a ratio-sample
// scaled with the independent-dimensions growth model. Points
// NewDataset rejects are an error.
func EstimateSkylineSize(pts []Point, ratio float64, seed int64) (*SkylineEstimate, error) {
	if err := checkPoints(pts); err != nil {
		return nil, err
	}
	return estimate.FromSample(pts, ratio, seed)
}

// ExpectedSkylineSize returns the analytic expected skyline size of n
// independent uniform points in d dimensions.
func ExpectedSkylineSize(n, d int) float64 { return estimate.Independent(n, d) }

// --- Sliding-window skylines ---

// WindowSkyline maintains the skyline of the most recent N stream
// points, with exact expiry semantics.
type WindowSkyline = window.Skyline

// NewWindowSkyline creates a count-based sliding-window skyline over
// the box [mins, maxs].
func NewWindowSkyline(capacity, dims, bits int, mins, maxs []float64) (*WindowSkyline, error) {
	return window.New(capacity, dims, bits, mins, maxs)
}

// --- Shared-memory parallel skyline ---

// ParallelOptions tunes ParallelSkyline.
type ParallelOptions = parallel.Options

// ParallelSkyline computes the exact skyline on shared-memory
// multicores: sample skyline -> per-task filter, Z-encode and routing
// of the survivors into one ZDG group per worker -> per-group Z-search
// -> parallel Z-merge, the paper's three phases on a goroutine pool.
// The lightweight choice when the input already fits in memory on one
// machine.
func ParallelSkyline(ds *Dataset, opts ParallelOptions) ([]Point, error) {
	return parallel.Skyline(context.Background(), ds, opts)
}

// ParallelSkylineContext is ParallelSkyline honoring ctx: cancellation
// is checked inside the filter pass and the merge probes (every 1024
// rows) and between tasks.
func ParallelSkylineContext(ctx context.Context, ds *Dataset, opts ParallelOptions) ([]Point, error) {
	return parallel.Skyline(ctx, ds, opts)
}

// --- Subspace skylines & skycube ---

// SubspaceSkyline returns the indices of the rows of ds whose
// projection onto dims is undominated (the subspace-skyline operator).
func SubspaceSkyline(ds *Dataset, dims []int) ([]int, error) {
	return subspace.Skyline(ds, dims, nil)
}

// SkyCube holds a skyline per non-empty dimension subset.
type SkyCube = subspace.Cube

// ComputeSkyCube computes all 2^d - 1 subspace skylines of ds (d <=
// 16) with the given concurrency.
func ComputeSkyCube(ds *Dataset, workers int) (*SkyCube, error) {
	return subspace.SkyCube(ds, workers, nil)
}

// --- Approximate & representative skylines ---

// EpsilonSkyline returns an ε-cover subset of the skyline: every input
// point q has a kept point p with p[i] <= q[i]+eps in all dimensions.
// Points NewDataset rejects are an error.
func EpsilonSkyline(pts []Point, eps float64) ([]Point, error) {
	if err := checkPoints(pts); err != nil {
		return nil, err
	}
	return approx.Epsilon(pts, eps)
}

// RepresentativeSkyline picks k diverse skyline points by greedy
// k-center under the L-infinity metric. Points NewDataset rejects are
// an error.
func RepresentativeSkyline(pts []Point, k int) ([]Point, error) {
	if err := checkPoints(pts); err != nil {
		return nil, err
	}
	return approx.Representative(pts, k)
}

// --- Out-of-core skylines ---

// OutOfCoreOptions tunes SkylineFile.
type OutOfCoreOptions struct {
	// BatchSize bounds the rows per map task, and so per read; 0
	// selects 65536.
	BatchSize int
	// Bits is the Z-order grid resolution per dimension; 0 selects 16.
	Bits int
}

// SkylineFile computes the skyline of a ZSKY binary file too large to
// load with the default pipeline (Engine.SkylineFile), which reads the
// file in passes: the bounds and the sample, then map tasks of
// BatchSize rows a wave at a time (and a verify pass under a
// non-transitive relation). Memory holds one wave (Workers × BatchSize
// rows, GOMAXPROCS × 65536 by default), the rows the filter routes, and
// phase 3 over the candidates; it does not track the skyline alone. An
// empty file has an empty skyline.
func SkylineFile(path string, opts OutOfCoreOptions) ([]Point, error) {
	cfg := core.Defaults()
	cfg.ChunkSize = 65536
	if opts.BatchSize > 0 {
		cfg.ChunkSize = opts.BatchSize
	}
	if opts.Bits > 0 {
		cfg.Bits = opts.Bits
	}
	eng, err := core.NewEngine(cfg)
	if err != nil {
		return nil, err
	}
	sky, _, err := eng.SkylineFile(context.Background(), path)
	return sky, err
}

// SaveMaintainer persists a maintainer's state (skyline + metadata) to
// w; restore with LoadMaintainer.
func SaveMaintainer(m *Maintainer, w io.Writer) error { return m.Save(w) }

// LoadMaintainer restores a maintainer written by SaveMaintainer.
func LoadMaintainer(r io.Reader) (*Maintainer, error) { return maintain.Load(r) }
