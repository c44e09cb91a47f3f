package core

import (
	"context"
	"runtime"
	"slices"
	"testing"

	"zskyline/internal/gen"
	"zskyline/internal/metrics"
	"zskyline/internal/plan"
	"zskyline/internal/point"
)

// Every task counts its tests into a counter of its own and adds it to
// the run's tally once, when it ends, so the tally is the same however
// many workers run the tasks: a task that forgot to add its counter, or
// added it twice, shows up as a count that moves with Workers. The pins
// are the counts at the defaults with M fixed at 32 (Defaults groups by
// the pool, so its own M would move them from box to box) on the shapes
// of bench/'s two batch workloads, data and sample seed 42.
func TestTallyIndependentOfWorkers(t *testing.T) {
	if d, procs := Defaults(), runtime.GOMAXPROCS(0); d.M != procs || d.Workers != procs {
		t.Fatalf("Defaults: M=%d Workers=%d, want both GOMAXPROCS=%d", d.M, d.Workers, procs)
	}
	cases := []struct {
		name string
		ds   *point.Dataset
		want metrics.Snapshot
	}{
		{"anti16k", gen.Synthetic(gen.AntiCorrelated, 16000, 8, 42),
			metrics.Snapshot{DominanceTests: 2591611, RegionTests: 1421638, PointsPruned: 2376}},
		{"corr120k", gen.Synthetic(gen.Correlated, 120000, 8, 42),
			metrics.Snapshot{DominanceTests: 426412, RegionTests: 143122, PointsPruned: 115853}},
	}
	for _, c := range cases {
		for _, w := range []int{1, 2, 3, 8} {
			cfg := Defaults()
			cfg.M = 32
			cfg.Workers = w
			cfg.Seed = 42
			eng, err := NewEngine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			_, rep, err := eng.Skyline(context.Background(), c.ds)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Tally != c.want {
				t.Errorf("%s workers=%d: tally %+v, want %+v", c.name, w, rep.Tally, c.want)
			}
		}
	}
}

// scaled returns a copy of pts with every coordinate times f. A power
// of two keeps every comparison, every ratio and every quantized grid
// cell of the bounds encoder exact.
func scaled(pts []point.Point, f float64) []point.Point {
	out := make([]point.Point, len(pts))
	for i, p := range pts {
		out[i] = make(point.Point, len(p))
		for k, v := range p {
			out[i][k] = v * f
		}
	}
	return out
}

// TestStrategiesScaleFree: every strategy quantizes under the bounds
// encoder learned from the data, so rows scaled by a power of two give
// the scaled skyline for exactly the same dominance and region tests —
// for the Grid and Angle baselines as for ZDG (the control). Random
// hashes the float bits, so it routes scaled rows elsewhere; only its
// local kernel is scale-free, which LocalSkylineRows over one group and
// over the group's scaled copy checks.
func TestStrategiesScaleFree(t *testing.T) {
	const f = 512
	ds := gen.Synthetic(gen.AntiCorrelated, 16000, 8, 11)
	big := point.MustDataset(ds.Dims, scaled(ds.Points, f))
	for _, st := range []Strategy{Grid, Angle, ZDG} {
		cfg := Defaults()
		cfg.Strategy, cfg.M, cfg.Workers, cfg.Seed = st, 8, 2, 11
		eng, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sky, rep, err := eng.Skyline(context.Background(), ds)
		if err != nil {
			t.Fatal(err)
		}
		bigSky, bigRep, err := eng.Skyline(context.Background(), big)
		if err != nil {
			t.Fatal(err)
		}
		sameSet(t, bigSky, scaled(sky, f), st.String())
		if rep.Tally != bigRep.Tally {
			t.Errorf("%v: tally %+v, scaled by %d %+v", st, rep.Tally, f, bigRep.Tally)
		}
	}

	cfg := Defaults()
	cfg.Strategy, cfg.M = Random, 8
	learn := func(ds *point.Dataset) *plan.Rule {
		mins, maxs, err := ds.Bounds()
		if err != nil {
			t.Fatal(err)
		}
		r, err := plan.Learn(cfg.spec(), ds.Dims, mins, maxs, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	r := learn(ds)
	groups, _ := plan.Shuffle([]plan.MapOutput{r.MapBlock(point.BlockOf(ds.Dims, ds.Points), nil)})
	g := groups[0]
	bigG := plan.Group{Gid: g.Gid, Block: point.BlockOf(ds.Dims, scaled(g.Block.Points(), f))}
	var tally, bigTally metrics.Tally
	rows := r.LocalSkylineRows(g, &tally)
	bigRows := learn(big).LocalSkylineRows(bigG, &bigTally)
	if !slices.Equal(rows, bigRows) || tally.Snapshot() != bigTally.Snapshot() {
		t.Errorf("Random's local skyline of %d rows: %d rows for %+v, scaled by %d %d rows for %+v",
			g.Len(), len(rows), tally.Snapshot(), f, len(bigRows), bigTally.Snapshot())
	}
}
