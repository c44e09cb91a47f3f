package plan

import (
	"testing"

	"zskyline/internal/gen"
)

// benchmarkRoute times a map task's per-row cost on one goroutine:
// router.route over every row of a generated input (d = 8, data seed
// 42), on the rule Learn builds under parallel.Skyline's spec at two
// workers — the float exit, and past it the grid, the SZB tree probe,
// the Z-address and the partition search. It reports the rows the
// router drops and the rows that leave at the float exit, both per row.
func benchmarkRoute(b *testing.B, dist gen.Distribution, n int) {
	ds := gen.Synthetic(dist, n, 8, 42)
	spec := &Spec{Strategy: ZDG, Local: ZS, Merge: MergeZM, M: 2, Delta: 4,
		MapTasks: 2, SampleRatio: 0.02, Seed: 1, Bits: 16}
	r := learnRule(b, spec, ds)
	exits := 0
	for _, p := range ds.Points {
		if r.top != nil && above(p, r.top) {
			exits++
		}
	}
	dropped := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt := r.newRouter()
		for _, p := range ds.Points {
			if _, ok := rt.route(p); !ok {
				dropped++
			}
		}
	}
	rows := float64(b.N * ds.Len())
	b.ReportMetric(b.Elapsed().Seconds()*1e9/rows, "ns/row")
	b.ReportMetric(float64(dropped)/rows, "dropped/row")
	b.ReportMetric(float64(exits)/float64(ds.Len()), "float-exit/row")
}

func BenchmarkRouteAnti16kD8(b *testing.B)  { benchmarkRoute(b, gen.AntiCorrelated, 16384) }
func BenchmarkRouteCorr120kD8(b *testing.B) { benchmarkRoute(b, gen.Correlated, 120000) }
