package plan

import (
	"testing"

	"zskyline/internal/dominance"
	"zskyline/internal/gen"
	"zskyline/internal/point"
	"zskyline/internal/sample"
)

// The block map path must allocate at least 5x less than the per-point
// path on identical data — the data-plane refactor's headline number.
// Both paths only filter and route, so the ratio measures routing alone.
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

	perPoint := testing.AllocsPerRun(3, func() { _ = r.MapChunk(ds.Points, nil) })
	perBlock := testing.AllocsPerRun(3, func() { _ = r.MapBlock(blk, nil) })
	if perBlock <= 0 {
		t.Fatalf("implausible block allocs %v", perBlock)
	}
	ratio := perPoint / perBlock
	t.Logf("map allocs: per-point %.0f, block %.0f, ratio %.1fx", perPoint, perBlock, ratio)
	if ratio < 5 {
		t.Errorf("block map path saves only %.1fx allocations, want >= 5x", ratio)
	}
}

// The pluggable-dominance layer must be free for the default relation:
// a rule learned with an explicit pareto descriptor must allocate
// exactly like a rule learned with the zero descriptor on the block map
// path, and the >= 5x block-vs-point gate must hold through it.
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
	perPoint := testing.AllocsPerRun(3, func() { _ = named.MapChunk(ds.Points, nil) })
	if namedAllocs <= 0 {
		t.Fatalf("implausible block allocs %v", namedAllocs)
	}
	if ratio := perPoint / namedAllocs; ratio < 5 {
		t.Errorf("pareto provider block map path saves only %.1fx allocations, want >= 5x", ratio)
	}
}
