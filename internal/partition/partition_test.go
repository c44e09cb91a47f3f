package partition

import (
	"math"
	"math/rand"
	"testing"

	"zskyline/internal/gen"
	"zskyline/internal/metrics"
	"zskyline/internal/point"
	"zskyline/internal/zbtree"
	"zskyline/internal/zorder"
)

func TestFactorize(t *testing.T) {
	cases := []struct {
		m, dims int
		product int
	}{
		{32, 5, 32}, {30, 3, 30}, {7, 2, 7}, {1, 4, 1}, {16, 2, 16}, {64, 10, 64},
	}
	for _, c := range cases {
		sp := factorize(c.m, c.dims)
		if len(sp) != c.dims {
			t.Fatalf("factorize(%d,%d) len = %d", c.m, c.dims, len(sp))
		}
		prod := 1
		for _, s := range sp {
			if s < 1 {
				t.Fatalf("factorize(%d,%d) has split %d", c.m, c.dims, s)
			}
			prod *= s
		}
		if prod != c.product {
			t.Errorf("factorize(%d,%d) product = %d, want %d", c.m, c.dims, prod, c.product)
		}
	}
	// Balanced for powers: 32 over 5 dims -> all 2s.
	for _, s := range factorize(32, 5) {
		if s != 2 {
			t.Errorf("factorize(32,5) = %v, want all 2s", factorize(32, 5))
		}
	}
}

func checkCoverage(t *testing.T, p Partitioner, pts []point.Point) []int {
	t.Helper()
	counts := make([]int, p.N())
	for _, pt := range pts {
		id := p.Assign(pt)
		if id < 0 || id >= p.N() {
			t.Fatalf("%s: assignment %d out of range [0,%d)", p.Name(), id, p.N())
		}
		counts[id]++
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != len(pts) {
		t.Fatalf("%s: assigned %d of %d points", p.Name(), total, len(pts))
	}
	return counts
}

func TestGridBasics(t *testing.T) {
	ds := gen.Synthetic(gen.Independent, 2000, 3, 1)
	g, err := NewGrid(ds.Points, 8)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 8 {
		t.Fatalf("N = %d, want 8", g.N())
	}
	checkCoverage(t, g, ds.Points)
	if _, err := NewGrid(nil, 4); err == nil {
		t.Error("empty sample should fail")
	}
	if _, err := NewGrid(ds.Points, 0); err == nil {
		t.Error("zero partitions should fail")
	}
}

func TestGridAssignDeterministic(t *testing.T) {
	ds := gen.Synthetic(gen.Independent, 100, 4, 2)
	g, _ := NewGrid(ds.Points, 16)
	for _, p := range ds.Points {
		if g.Assign(p) != g.Assign(p) {
			t.Fatal("grid assignment not deterministic")
		}
	}
	// Out-of-box points clamp rather than escape.
	if id := g.Assign(point.Point{-5, -5, -5, -5}); id < 0 || id >= g.N() {
		t.Errorf("clamped assignment out of range: %d", id)
	}
	if id := g.Assign(point.Point{9, 9, 9, 9}); id < 0 || id >= g.N() {
		t.Errorf("clamped assignment out of range: %d", id)
	}
}

// The paper's motivation: equal-width grid on skewed data is highly
// imbalanced, while the Z-curve equal-frequency cuts stay balanced.
func TestGridImbalanceVsZCurveOnSkewedData(t *testing.T) {
	// Strongly clustered data.
	rng := rand.New(rand.NewSource(3))
	pts := make([]point.Point, 4000)
	for i := range pts {
		pts[i] = point.Point{
			math.Min(1, math.Abs(rng.NormFloat64()*0.05)),
			math.Min(1, math.Abs(rng.NormFloat64()*0.05)),
			math.Min(1, math.Abs(rng.NormFloat64()*0.05)),
			rng.Float64(),
		}
	}
	g, _ := NewGrid(pts, 16)
	gridBal := metrics.NewBalance(checkCoverage(t, g, pts))

	enc, _ := zorder.NewUnitEncoder(4, 12)
	z, err := newZCurve(enc, pts, 16)
	if err != nil {
		t.Fatal(err)
	}
	zBal := metrics.NewBalance(checkCoverage(t, z, pts))
	if zBal.Imbalance >= gridBal.Imbalance {
		t.Errorf("zcurve imbalance %.2f should beat grid %.2f on skewed data",
			zBal.Imbalance, gridBal.Imbalance)
	}
	if zBal.Imbalance > 1.5 {
		t.Errorf("zcurve imbalance %.2f too high", zBal.Imbalance)
	}
}

func TestAngleBasics(t *testing.T) {
	ds := gen.Synthetic(gen.AntiCorrelated, 3000, 4, 5)
	a, err := NewAngle(ds.Points, 9)
	if err != nil {
		t.Fatal(err)
	}
	if a.N() != 9 {
		t.Fatalf("N = %d, want 9", a.N())
	}
	counts := checkCoverage(t, a, ds.Points)
	bal := metrics.NewBalance(counts)
	// Equal-frequency learned boundaries: reasonable balance.
	if bal.Imbalance > 2.0 {
		t.Errorf("angle imbalance %.2f too high: %v", bal.Imbalance, counts)
	}
}

func TestAngleOneDimensional(t *testing.T) {
	pts := []point.Point{{0.1}, {0.5}, {0.9}}
	a, err := NewAngle(pts, 4)
	if err != nil {
		t.Fatal(err)
	}
	if a.N() != 1 {
		t.Fatalf("1-d angle N = %d, want 1", a.N())
	}
	if a.Assign(pts[0]) != 0 {
		t.Error("1-d assignment must be 0")
	}
}

func TestHyperspherical(t *testing.T) {
	// 2-d: angle = atan2(y, x).
	ang := Hyperspherical(point.Point{1, 1})
	if math.Abs(ang[0]-math.Pi/4) > 1e-12 {
		t.Errorf("angle of (1,1) = %v, want pi/4", ang[0])
	}
	ang = Hyperspherical(point.Point{1, 0})
	if ang[0] != 0 {
		t.Errorf("angle of (1,0) = %v, want 0", ang[0])
	}
	// 3-d angles lie in [0, pi/2] for non-negative points.
	ang = Hyperspherical(point.Point{0.3, 0.4, 0.5})
	for _, v := range ang {
		if v < 0 || v > math.Pi/2 {
			t.Errorf("angle %v out of [0, pi/2]", v)
		}
	}
}

func TestRandomPartitioner(t *testing.T) {
	r, err := NewRandom(8)
	if err != nil {
		t.Fatal(err)
	}
	ds := gen.Synthetic(gen.Independent, 4000, 5, 9)
	counts := checkCoverage(t, r, ds.Points)
	bal := metrics.NewBalance(counts)
	if bal.Imbalance > 1.3 {
		t.Errorf("random imbalance %.2f: %v", bal.Imbalance, counts)
	}
	if _, err := NewRandom(0); err == nil {
		t.Error("zero partitions should fail")
	}
}

func TestZCurveBasics(t *testing.T) {
	ds := gen.Synthetic(gen.Independent, 3000, 5, 11)
	enc, _ := zorder.NewUnitEncoder(5, 12)
	z, err := newZCurve(enc, ds.Points, 32)
	if err != nil {
		t.Fatal(err)
	}
	if z.N() != 32 {
		t.Fatalf("N = %d, want 32", z.N())
	}
	counts := checkCoverage(t, z, ds.Points)
	bal := metrics.NewBalance(counts)
	if bal.Imbalance > 1.35 {
		t.Errorf("zcurve imbalance %.2f on its own sample: %v", bal.Imbalance, counts)
	}
	if _, err := newZCurve(enc, nil, 4); err == nil {
		t.Error("empty sample should fail")
	}
}

func TestZCurveBalancedOnUnseenData(t *testing.T) {
	// Learn on a sample, apply to fresh data from the same distribution.
	train := gen.Synthetic(gen.AntiCorrelated, 2000, 4, 13)
	test := gen.Synthetic(gen.AntiCorrelated, 20000, 4, 14)
	enc, _ := zorder.NewUnitEncoder(4, 12)
	z, _ := newZCurve(enc, train.Points, 16)
	bal := metrics.NewBalance(checkCoverage(t, z, test.Points))
	if bal.Imbalance > 1.6 {
		t.Errorf("zcurve generalization imbalance %.2f", bal.Imbalance)
	}
}

func TestZCurveInfos(t *testing.T) {
	ds := gen.Synthetic(gen.Independent, 2000, 3, 15)
	enc, _ := zorder.NewUnitEncoder(3, 10)
	z, _ := newZCurve(enc, ds.Points, 8)
	infos := z.Infos()
	if len(infos) != z.N() {
		t.Fatalf("infos len = %d, want %d", len(infos), z.N())
	}
	totalCount, totalSky := 0, 0
	for i, in := range infos {
		if in.ID != i {
			t.Errorf("info %d has ID %d", i, in.ID)
		}
		totalCount += in.Count
		totalSky += in.SkyCount
		for d := range in.Extent.MinG {
			if in.Extent.MinG[d] < in.Interval.MinG[d] || in.Extent.MaxG[d] > in.Interval.MaxG[d] {
				t.Errorf("partition %d extent escapes interval", i)
			}
		}
	}
	if totalCount != ds.Len() {
		t.Errorf("info counts sum to %d, want %d", totalCount, ds.Len())
	}
	if totalSky == 0 {
		t.Error("no skyline points counted")
	}
}

// Every real point routed to partition i must lie inside the
// partition's interval RZ-region — that is what makes region-level
// partition pruning sound.
func TestZCurveIntervalRegionContainsAssignedPoints(t *testing.T) {
	train := gen.Synthetic(gen.Independent, 500, 3, 17)
	test := gen.Synthetic(gen.Independent, 5000, 3, 18)
	enc, _ := zorder.NewUnitEncoder(3, 8)
	z, _ := newZCurve(enc, train.Points, 16)
	infos := z.Infos()
	for _, p := range test.Points {
		id := z.Assign(p)
		g := enc.Grid(p)
		r := infos[id].Interval
		for d := range g {
			if g[d] < r.MinG[d] || g[d] > r.MaxG[d] {
				t.Fatalf("point %v grid %v outside interval region [%v,%v] of partition %d",
					p, g, r.MinG, r.MaxG, id)
			}
		}
	}
}

func TestZCurveRedistribute(t *testing.T) {
	// Anti-correlated data: skyline concentrated along the diagonal
	// band; redistribution should split heavy partitions.
	ds := gen.Synthetic(gen.AntiCorrelated, 3000, 3, 19)
	enc, _ := zorder.NewUnitEncoder(3, 10)
	z, _ := newZCurve(enc, ds.Points, 8)
	maxSky := 0
	totalSky := 0
	for _, in := range z.Infos() {
		totalSky += in.SkyCount
		if in.SkyCount > maxSky {
			maxSky = in.SkyCount
		}
	}
	target := totalSky / 16
	if target < 1 {
		target = 1
	}
	rz := z.Redistribute(ds.Points, zbtree.ZSearch(enc, 0, ds.Points, nil), target)
	if rz.N() <= z.N() {
		t.Fatalf("redistribute did not split: %d -> %d (maxSky=%d target=%d)",
			z.N(), rz.N(), maxSky, target)
	}
	// All data still routes somewhere valid.
	checkCoverage(t, rz, ds.Points)
	newMax := 0
	for _, in := range rz.Infos() {
		if in.SkyCount > newMax {
			newMax = in.SkyCount
		}
	}
	if newMax > maxSky {
		t.Errorf("redistribute increased max skyline load %d -> %d", maxSky, newMax)
	}
}

func TestZCurveDuplicateHeavySample(t *testing.T) {
	// Many identical points: pivots collapse; partitioner must stay valid.
	pts := make([]point.Point, 200)
	for i := range pts {
		pts[i] = point.Point{0.5, 0.5}
	}
	enc, _ := zorder.NewUnitEncoder(2, 8)
	z, err := newZCurve(enc, pts, 8)
	if err != nil {
		t.Fatal(err)
	}
	if z.N() < 1 {
		t.Fatalf("N = %d", z.N())
	}
	checkCoverage(t, z, pts)
}

// newZCurve learns a Z-curve from pts, computing the sample skyline the
// way plan.Learn does.
func newZCurve(enc *zorder.Encoder, pts []point.Point, m int) (*ZCurve, error) {
	return NewZCurve(enc, pts, zbtree.ZSearch(enc, 0, pts, nil), m)
}
