// Package parallel computes skylines on shared-memory multicores: the
// paper's three phases as internal/plan runs them, on a goroutine pool
// (plan.LocalExec) and under ZDG with one group per worker. Phase 1
// learns the data bounds and the skyline of a 2 % sample, and from it
// the SZB filter and the Z-curve partitions, grouped into Workers
// groups by dominance (§4.3). The input is cut into one contiguous map
// task per worker; each drops the rows the sample skyline dominates,
// Z-encodes only the survivors, reading the dataset's rows where they
// lie, and routes them to their groups. Each group is solved with
// Z-search, and the group skylines are merged on the same workers: up
// to four groups each probe the other groups' ZB-trees, more probe one
// tree over all their rows. All of that is plan's; this package only fixes the
// spec — the entry point for users who want the paper's algorithms on
// one machine, not a simulated cluster.
package parallel

import (
	"context"
	"runtime"

	"zskyline/internal/dominance"
	"zskyline/internal/metrics"
	"zskyline/internal/plan"
	"zskyline/internal/point"
	"zskyline/internal/zorder"
)

// Options tunes Skyline.
type Options struct {
	// Workers is the goroutine, map task and group count; 0 selects
	// GOMAXPROCS.
	Workers int
	// Bits is the Z-order resolution; 0 selects zorder.DefaultBits (16,
	// less for very high dimensionality).
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
		o.Bits = zorder.DefaultBits(dims)
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
// skyline, SZB-tree, partitions and groups), map (filter, encode and
// route, one task per worker), local-skyline (per-group Z-search) and
// merge/round-1 (the merge).
func Skyline(ctx context.Context, ds *point.Dataset, opts Options) ([]point.Point, error) {
	if ds == nil || ds.Len() == 0 {
		return nil, nil
	}
	opts = opts.normalize(ds.Dims)
	spec := &plan.Spec{
		Strategy:    plan.ZDG,
		Local:       plan.ZS,
		Merge:       plan.MergeZM,
		M:           opts.Workers,
		Delta:       4,
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
