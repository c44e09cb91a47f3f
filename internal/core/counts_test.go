package core

import (
	"context"
	"runtime"
	"testing"

	"zskyline/internal/gen"
	"zskyline/internal/metrics"
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
