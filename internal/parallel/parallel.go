// Package parallel computes skylines on shared-memory multicores: the
// paper's three phases as internal/plan runs them, on a goroutine pool
// (plan.LocalExec) and under the Positional strategy. Phase 1 learns
// the data bounds and the skyline of a 2 % sample; the input is then
// cut into one contiguous shard per worker, and each map task drops the
// rows the sample skyline dominates and Z-encodes only the survivors,
// reading the dataset's rows where they lie. Each shard's survivors are
// solved with Z-search, and the shard skylines are merged on the same
// workers: two shards probe each other's ZB-tree, three or more probe
// one tree over all their rows. All of that is plan's; this package
// only fixes the spec — the entry point for users who want the paper's
// algorithms on one machine, not a simulated cluster.
package parallel

import (
	"context"
	"fmt"
	"runtime"

	"zskyline/internal/dominance"
	"zskyline/internal/metrics"
	"zskyline/internal/plan"
	"zskyline/internal/point"
)

// Options tunes Skyline.
type Options struct {
	// Workers is the shard/goroutine count; 0 selects GOMAXPROCS.
	Workers int
	// Bits is the Z-order resolution; 0 selects 16 (capped for very
	// high dimensionality).
	Bits int
	// Fanout is the ZB-tree fanout; 0 selects the default.
	Fanout int
	// Tally receives work counters; may be nil.
	Tally *metrics.Tally
	// Dominance selects the dominance relation (see internal/dominance);
	// the zero value is classic Pareto dominance.
	Dominance dominance.Descriptor
}

func (o Options) normalize(dims int) Options {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.Bits <= 0 {
		switch {
		case dims <= 16:
			o.Bits = 16
		case dims <= 64:
			o.Bits = 12
		default:
			o.Bits = 8
		}
	}
	return o
}

// sampleRatio and sampleSeed fix phase 1's sample: the repository's 2 %
// default, and one seed for every call, so the same input with the same
// Workers always yields the same rule, the same survivors and the same
// output order.
const (
	sampleRatio = 0.02
	sampleSeed  = 1
)

// Skyline computes the exact skyline of ds using opts.Workers
// goroutines. ctx is honored inside the map tasks and the merge probes
// (every 1024 rows) and between tasks.
//
// When ctx carries an obs trace, Skyline emits the library's uniform
// span taxonomy, exactly as plan.Run produces it: learn (bounds, sample
// skyline, SZB-tree), map (filter + encode, one task per shard),
// local-skyline (per-shard Z-search) and merge/round-1 (the merge).
func Skyline(ctx context.Context, ds *point.Dataset, opts Options) ([]point.Point, error) {
	if ds == nil || ds.Len() == 0 {
		return nil, nil
	}
	opts = opts.normalize(ds.Dims)
	spec := &plan.Spec{
		Strategy:    plan.Positional,
		Local:       plan.ZS,
		Merge:       plan.MergeZM,
		M:           opts.Workers,
		Delta:       1,
		MapTasks:    opts.Workers,
		SampleRatio: sampleRatio,
		Seed:        sampleSeed,
		Bits:        opts.Bits,
		Fanout:      opts.Fanout,
		Dominance:   opts.Dominance,
	}
	sky, _, err := plan.Run(ctx, spec, ds, plan.NewLocalExec(opts.Workers), opts.Tally)
	return sky, err
}

// SkylineOf is a convenience wrapper over raw points.
func SkylineOf(ctx context.Context, dims int, pts []point.Point, opts Options) ([]point.Point, error) {
	ds, err := point.NewDataset(dims, pts)
	if err != nil {
		return nil, fmt.Errorf("parallel: %w", err)
	}
	return Skyline(ctx, ds, opts)
}
