package plan

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"zskyline/internal/dominance"
	"zskyline/internal/gen"
	"zskyline/internal/point"
	"zskyline/internal/sample"
)

// The map path never allocates per row: over a packed block and over
// the row views Run reads in place alike, a map task of 20000 rows
// routed into 32 groups costs fewer than one allocation per five rows —
// the gate the per-point path this replaced failed by a wide margin.
// Both paths only filter, route and list the routed rows, so the count
// measures routing alone.
func TestMapBlockAllocReduction(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc measurement is slow")
	}
	const n, d = 20000, 5
	ds := gen.Synthetic(gen.AntiCorrelated, n, d, 42)
	smp, err := sample.Ratio(ds.Points, 0.02, 42)
	if err != nil {
		t.Fatal(err)
	}
	mins, maxs, err := ds.Bounds()
	if err != nil {
		t.Fatal(err)
	}
	spec := &Spec{Strategy: ZDG, Local: SB, Merge: MergeZM,
		M: 32, Delta: 4, SampleRatio: 0.02, Bits: 16}
	r, err := Learn(spec, ds.Dims, mins, maxs, smp, nil)
	if err != nil {
		t.Fatal(err)
	}
	blk := point.BlockOf(ds.Dims, ds.Points)
	row := func(i int) point.Point { return ds.Points[i] }

	perBlock := testing.AllocsPerRun(3, func() { _ = r.MapBlock(blk, nil) })
	perRows := testing.AllocsPerRun(3, func() { _ = r.mapRows(context.Background(), n, row, nil) })
	t.Logf("map allocs over %d rows: block %.0f, row views %.0f", n, perBlock, perRows)
	for path, allocs := range map[string]float64{"block": perBlock, "row views": perRows} {
		if allocs <= 0 || allocs*5 > n {
			t.Errorf("%s map path: %.0f allocations for %d rows, want (0, %d]", path, allocs, n, n/5)
		}
	}
}

// The pluggable-dominance layer must be free for the default relation:
// a rule learned with an explicit pareto descriptor must allocate
// exactly like a rule learned with the zero descriptor on the block map
// path, and the one-allocation-per-five-rows gate must hold through it.
func TestParetoProviderNoRegression(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc measurement is slow")
	}
	const n, d = 20000, 5
	ds := gen.Synthetic(gen.AntiCorrelated, n, d, 42)
	smp, err := sample.Ratio(ds.Points, 0.02, 42)
	if err != nil {
		t.Fatal(err)
	}
	mins, maxs, err := ds.Bounds()
	if err != nil {
		t.Fatal(err)
	}
	learn := func(desc dominance.Descriptor) *Rule {
		spec := &Spec{Strategy: ZDG, Local: SB, Merge: MergeZM,
			M: 32, Delta: 4, SampleRatio: 0.02, Bits: 16, Dominance: desc}
		r, err := Learn(spec, ds.Dims, mins, maxs, smp, nil)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	zero := learn(dominance.Descriptor{})
	named := learn(dominance.Descriptor{Kind: dominance.KindPareto})
	blk := point.BlockOf(ds.Dims, ds.Points)

	zeroAllocs := testing.AllocsPerRun(3, func() { _ = zero.MapBlock(blk, nil) })
	namedAllocs := testing.AllocsPerRun(3, func() { _ = named.MapBlock(blk, nil) })
	t.Logf("block map allocs: zero descriptor %.0f, pareto descriptor %.0f", zeroAllocs, namedAllocs)
	// Allow 1% jitter: AllocsPerRun wobbles by a count or two on
	// internal map growth, but a provider-layer regression would cost
	// allocations per row, i.e. thousands here.
	if namedAllocs > zeroAllocs*1.01+1 {
		t.Errorf("pareto descriptor regresses block map allocs: %v vs %v", namedAllocs, zeroAllocs)
	}
	if namedAllocs <= 0 || namedAllocs*5 > n {
		t.Errorf("pareto provider block map path: %.0f allocations for %d rows, want (0, %d]", namedAllocs, n, n/5)
	}
}

// A map task lists its routed rows by position in chunks it never
// copies, and the gather copies each row once into a group sized
// exactly, so over anti-correlated rows, where five in six pass the
// filter, map plus gather allocate at most 1.4 times the bytes of the
// survivors they return (packed rows plus Z-column), over one, two or
// four map tasks, at parallel's M = 2 and core's M = 32 alike: the lists
// cost 24 bytes a routed row against a survivor's 80, and measure 1.33
// to 1.34 times.
func TestMapBlockBytesNearSurvivors(t *testing.T) {
	ds := gen.Synthetic(gen.AntiCorrelated, 16000, 8, 42)
	blk := point.BlockOf(ds.Dims, ds.Points)
	for _, m := range []int{2, 32} {
		spec := &Spec{Strategy: ZDG, Local: ZS, Merge: MergeZM, M: m, Delta: 4,
			SampleRatio: 0.02, Bits: 16, Seed: 1}
		r := learnRule(t, spec, ds)
		for _, tasks := range []int{1, 2, 4} {
			chunks := blk.SplitN(tasks)
			outs := make([]MapOutput, len(chunks))
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			for i, c := range chunks {
				outs[i] = r.MapBlock(c, nil)
			}
			groups, filtered := Shuffle(outs)
			runtime.ReadMemStats(&after)
			survivors := 0
			for _, g := range groups {
				survivors += 8 * (len(g.Block.Data) + len(g.ZCol.Data))
			}
			label := fmt.Sprintf("M=%d/%d tasks", m, len(chunks))
			got := after.TotalAlloc - before.TotalAlloc
			t.Logf("%s: %d groups, map and gather allocated %d B for %d B of survivors (%.2f×)",
				label, len(groups), got, survivors, float64(got)/float64(survivors))
			if filtered == 0 || survivors == 0 {
				t.Fatalf("%s: filtered %d rows, kept %d B", label, filtered, survivors)
			}
			if got*10 > 14*uint64(survivors) {
				t.Errorf("%s: map and gather allocated %d B, over 1.4 times their %d B of survivors", label, got, survivors)
			}
		}
	}
}
