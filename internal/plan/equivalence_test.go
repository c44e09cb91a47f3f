package plan_test

// Cross-executor equivalence: the same dataset and seed must yield the
// identical exact skyline through every substrate — the engine (core,
// SB and ZS), the TCP coordinator/worker deployment (dist, over
// loopback), the shared-memory pool (parallel), and the raw plan driver
// on a LocalExec — all checked against the brute-force oracle.

import (
	"context"
	"testing"

	"zskyline/internal/core"
	"zskyline/internal/dist"
	"zskyline/internal/gen"
	"zskyline/internal/metrics"
	"zskyline/internal/parallel"
	"zskyline/internal/plan"
	"zskyline/internal/point"
	"zskyline/internal/seq"
)

func sameSet(t *testing.T, got, want []point.Point, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %d points, want %d", label, len(got), len(want))
	}
	g := append([]point.Point(nil), got...)
	w := append([]point.Point(nil), want...)
	point.SortLexicographic(g)
	point.SortLexicographic(w)
	for i := range g {
		if !g[i].Equal(w[i]) {
			t.Fatalf("%s: [%d] = %v, want %v", label, i, g[i], w[i])
		}
	}
}

// quantize rounds coordinates onto a coarse grid, manufacturing heavy
// ties and duplicates.
func quantize(ds *point.Dataset) *point.Dataset {
	for i, p := range ds.Points {
		for k := range p {
			ds.Points[i][k] = float64(int(p[k]*4)) / 4
		}
	}
	return ds
}

// startCluster spins up n loopback TCP workers.
func startCluster(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		ws, err := dist.StartWorker("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ws.Close() })
		addrs[i] = ws.Addr()
	}
	return addrs
}

func coreSkyline(t *testing.T, ds *point.Dataset, local plan.LocalAlgo) []point.Point {
	t.Helper()
	cfg := core.Defaults()
	cfg.Strategy = core.ZDG
	cfg.Local = local
	cfg.M = 8
	cfg.Delta = 3
	cfg.SampleRatio = 0.05
	cfg.Workers = 4
	cfg.Seed = 99
	e, err := core.NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sky, _, err := e.Skyline(context.Background(), ds)
	if err != nil {
		t.Fatal(err)
	}
	return sky
}

func distSkyline(t *testing.T, ds *point.Dataset, addrs []string) []point.Point {
	t.Helper()
	cfg := dist.DefaultCoordinatorConfig()
	cfg.M = 8
	cfg.SampleRatio = 0.05
	cfg.ChunkSize = 500
	cfg.Seed = 99
	coord, err := dist.NewCoordinator(cfg, addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	sky, _, err := coord.Skyline(context.Background(), ds)
	if err != nil {
		t.Fatal(err)
	}
	return sky
}

func planSkyline(t *testing.T, ds *point.Dataset, strategy plan.Strategy) []point.Point {
	t.Helper()
	spec := &plan.Spec{
		Strategy:    strategy,
		Local:       plan.ZS,
		Merge:       plan.MergeZM,
		M:           8,
		Delta:       3,
		SampleRatio: 0.05,
		Bits:        12,
		Seed:        99,
		MapTasks:    6,
	}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	sky, _, err := plan.Run(context.Background(), spec, ds, plan.NewLocalExec(4), &metrics.Tally{})
	if err != nil {
		t.Fatal(err)
	}
	return sky
}

func TestExecutorsEquivalent(t *testing.T) {
	addrs := startCluster(t, 3)
	cases := []struct {
		name string
		ds   *point.Dataset
	}{
		{"indep", gen.Synthetic(gen.Independent, 3000, 4, 21)},
		{"corr", gen.Synthetic(gen.Correlated, 3000, 4, 22)},
		{"anti", gen.Synthetic(gen.AntiCorrelated, 3000, 4, 23)},
		{"dups", quantize(gen.Synthetic(gen.Independent, 3000, 3, 24))},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := seq.BruteForce(tc.ds.Points)

			sameSet(t, coreSkyline(t, tc.ds, plan.SB), want, "core/SB")
			sameSet(t, coreSkyline(t, tc.ds, plan.ZS), want, "core/ZS")
			sameSet(t, distSkyline(t, tc.ds, addrs), want, "dist")

			par, err := parallel.Skyline(context.Background(), tc.ds, parallel.Options{Workers: 4})
			if err != nil {
				t.Fatal(err)
			}
			sameSet(t, par, want, "parallel")

			for _, st := range []plan.Strategy{plan.NaiveZ, plan.ZHG, plan.ZDG} {
				sameSet(t, planSkyline(t, tc.ds, st), want, "plan/"+st.String())
			}
		})
	}
}
