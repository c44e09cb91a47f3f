package zorder

import (
	"math/rand"
	"testing"
	"testing/quick"

	"zskyline/internal/point"
)

func mustEnc(t testing.TB, dims, bits int) *Encoder {
	t.Helper()
	e, err := NewUnitEncoder(dims, bits)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestNewEncoderValidation(t *testing.T) {
	if _, err := NewUnitEncoder(0, 8); err == nil {
		t.Error("zero dims should fail")
	}
	if _, err := NewUnitEncoder(2, 0); err == nil {
		t.Error("zero bits should fail")
	}
	if _, err := NewUnitEncoder(2, 33); err == nil {
		t.Error("bits > 32 should fail")
	}
	if _, err := NewEncoder(2, 8, []float64{0}, []float64{1, 1}); err == nil {
		t.Error("bad bounds length should fail")
	}
	if _, err := NewEncoder(1, 8, []float64{1}, []float64{0}); err == nil {
		t.Error("inverted bounds should fail")
	}
}

func TestGridQuantization(t *testing.T) {
	e := mustEnc(t, 2, 2) // 4 cells per dim over [0,1]
	cases := []struct {
		p    point.Point
		want []uint32
	}{
		{point.Point{0, 0}, []uint32{0, 0}},
		{point.Point{0.24, 0.26}, []uint32{0, 1}},
		{point.Point{0.5, 0.75}, []uint32{2, 3}},
		{point.Point{1, 1}, []uint32{3, 3}},  // clamped to max cell
		{point.Point{-5, 9}, []uint32{0, 3}}, // clamped outside box
		{point.Point{0.999, 0}, []uint32{3, 0}},
	}
	for _, c := range cases {
		g := e.Grid(c.p)
		for i := range g {
			if g[i] != c.want[i] {
				t.Errorf("Grid(%v) = %v, want %v", c.p, g, c.want)
				break
			}
		}
	}
}

func TestDegenerateDimension(t *testing.T) {
	e, err := NewEncoder(2, 4, []float64{0, 5}, []float64{1, 5})
	if err != nil {
		t.Fatal(err)
	}
	g := e.Grid(point.Point{0.5, 5})
	if g[1] != 0 {
		t.Errorf("degenerate dim should quantize to 0, got %d", g[1])
	}
}

func TestEncodeDecodeRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		dims := 1 + r.Intn(12)
		bits := 1 + r.Intn(MaxBits)
		e, err := NewUnitEncoder(dims, bits)
		if err != nil {
			return false
		}
		g := make([]uint32, dims)
		for i := range g {
			g[i] = uint32(r.Int63()) & e.MaxGrid()
		}
		got := e.DecodeGrid(e.EncodeGrid(g))
		for i := range g {
			if got[i] != g[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

func TestKnownInterleaving(t *testing.T) {
	// 2 dims, 2 bits: point (x=1(01), y=2(10)) interleaves MSB-first
	// x-bit then y-bit per level: level1: x=0,y=1; level0: x=1,y=0 ->
	// bits 0110.
	e := mustEnc(t, 2, 2)
	z := e.EncodeGrid([]uint32{1, 2})
	if got := z.String()[:4]; got != "0110" {
		t.Errorf("interleaving = %q, want 0110", got)
	}
}

// Property: componentwise <= on grid coordinates implies Z-address <=.
func TestZOrderMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for iter := 0; iter < 4000; iter++ {
		dims := 1 + rng.Intn(8)
		bits := 1 + rng.Intn(16)
		e, _ := NewUnitEncoder(dims, bits)
		a := make([]uint32, dims)
		b := make([]uint32, dims)
		for i := range a {
			a[i] = uint32(rng.Int63()) & e.MaxGrid()
			// b >= a componentwise
			room := e.MaxGrid() - a[i]
			b[i] = a[i]
			if room > 0 {
				b[i] += uint32(rng.Int63n(int64(room) + 1))
			}
		}
		if Compare(e.EncodeGrid(a), e.EncodeGrid(b)) > 0 {
			t.Fatalf("monotonicity violated: a=%v b=%v", a, b)
		}
	}
}

func TestCompareMatchesStringOrder(t *testing.T) {
	e := mustEnc(t, 3, 21) // 63 bits: within one word
	rng := rand.New(rand.NewSource(17))
	for iter := 0; iter < 1000; iter++ {
		a := make([]uint32, 3)
		b := make([]uint32, 3)
		for i := range a {
			a[i] = uint32(rng.Int63()) & e.MaxGrid()
			b[i] = uint32(rng.Int63()) & e.MaxGrid()
		}
		za, zb := e.EncodeGrid(a), e.EncodeGrid(b)
		sa, sb := za.String(), zb.String()
		want := 0
		if sa < sb {
			want = -1
		} else if sa > sb {
			want = 1
		}
		if got := Compare(za, zb); got != want {
			t.Fatalf("Compare=%d want %d for %s vs %s", got, want, sa, sb)
		}
	}
}

func TestCommonPrefixLen(t *testing.T) {
	e := mustEnc(t, 2, 8)
	a := e.EncodeGrid([]uint32{0, 0})
	if got := CommonPrefixLen(a, a, e.TotalBits()); got != e.TotalBits() {
		t.Errorf("identical addrs prefix = %d, want %d", got, e.TotalBits())
	}
	b := a.Clone()
	b[0] |= 1 << 63 // flip the very first bit
	if got := CommonPrefixLen(a, b, e.TotalBits()); got != 0 {
		t.Errorf("first-bit diff prefix = %d, want 0", got)
	}
}

// Paper example, §3.2: Z-addresses 10110, 10011, 10010 share prefix
// "10"; minpt = 10000, maxpt = 10111.
func TestRegionOfPaperExample(t *testing.T) {
	// 5 bits: 1 dim x 5 bits keeps addresses literal.
	e, err := NewUnitEncoder(1, 5)
	if err != nil {
		t.Fatal(err)
	}
	alpha := e.EncodeGrid([]uint32{0b10010})
	beta := e.EncodeGrid([]uint32{0b10110})
	r := e.RegionOf(alpha, beta)
	if r.MinG[0] != 0b10000 || r.MaxG[0] != 0b10111 {
		t.Errorf("region = [%05b, %05b], want [10000, 10111]", r.MinG[0], r.MaxG[0])
	}
}

// Property: RegionOf encloses both boundary addresses componentwise.
func TestRegionEnclosesBoundaries(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for iter := 0; iter < 2000; iter++ {
		dims := 1 + rng.Intn(6)
		bits := 2 + rng.Intn(14)
		e, _ := NewUnitEncoder(dims, bits)
		ga := make([]uint32, dims)
		gb := make([]uint32, dims)
		for i := range ga {
			ga[i] = uint32(rng.Int63()) & e.MaxGrid()
			gb[i] = uint32(rng.Int63()) & e.MaxGrid()
		}
		za, zb := e.EncodeGrid(ga), e.EncodeGrid(gb)
		if Compare(za, zb) > 0 {
			za, zb = zb, za
			ga, gb = gb, ga
		}
		r := e.RegionOf(za, zb)
		for _, g := range [][]uint32{ga, gb} {
			for i := range g {
				if g[i] < r.MinG[i] || g[i] > r.MaxG[i] {
					t.Fatalf("region %v-%v does not enclose %v", r.MinG, r.MaxG, g)
				}
			}
		}
	}
}

// Property: region corners bound every address between the boundaries
// in Z-order (the defining property of an RZ-region).
func TestRegionCoversIntermediateAddresses(t *testing.T) {
	e, _ := NewUnitEncoder(2, 4)
	rng := rand.New(rand.NewSource(31))
	for iter := 0; iter < 300; iter++ {
		ga := []uint32{uint32(rng.Intn(16)), uint32(rng.Intn(16))}
		gb := []uint32{uint32(rng.Intn(16)), uint32(rng.Intn(16))}
		gm := []uint32{uint32(rng.Intn(16)), uint32(rng.Intn(16))}
		za, zb, zm := e.EncodeGrid(ga), e.EncodeGrid(gb), e.EncodeGrid(gm)
		if Compare(za, zb) > 0 {
			za, zb = zb, za
		}
		if Compare(za, zm) <= 0 && Compare(zm, zb) <= 0 {
			r := e.RegionOf(za, zb)
			g := e.DecodeGrid(zm)
			for i := range g {
				if g[i] < r.MinG[i] || g[i] > r.MaxG[i] {
					t.Fatalf("intermediate %v outside region [%v,%v]", g, r.MinG, r.MaxG)
				}
			}
		}
	}
}

func TestGridDominanceHelpers(t *testing.T) {
	if !GridStrictDominates([]uint32{1, 2}, []uint32{3, 4}) {
		t.Error("strict dominate failed")
	}
	if GridStrictDominates([]uint32{1, 4}, []uint32{3, 4}) {
		t.Error("tie should not strict-dominate")
	}
	if !GridSomeGreater([]uint32{5, 0}, []uint32{4, 9}) {
		t.Error("some-greater failed")
	}
	if GridSomeGreater([]uint32{1, 1}, []uint32{1, 1}) {
		t.Error("equal grids have no greater dim")
	}
}

// The soundness property everything rests on: grid-strict dominance of
// quantized points implies float dominance of the originals.
func TestConservativeDominanceSoundness(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for iter := 0; iter < 5000; iter++ {
		dims := 1 + rng.Intn(5)
		bits := 1 + rng.Intn(10)
		e, _ := NewUnitEncoder(dims, bits)
		p := make(point.Point, dims)
		q := make(point.Point, dims)
		for i := 0; i < dims; i++ {
			p[i] = rng.Float64()
			q[i] = rng.Float64()
		}
		if GridStrictDominates(e.Grid(p), e.Grid(q)) && !point.Dominates(p, q) {
			t.Fatalf("unsound: grid strict dominance without float dominance: %v %v", p, q)
		}
		// And the no-dominate direction: if region-min grid has a
		// greater dim than q's grid, p cannot dominate q when p lies in
		// a cell at or above that region min.
		if GridSomeGreater(e.Grid(p), e.Grid(q)) && point.Dominates(p, q) {
			t.Fatalf("unsound skip: %v dominates %v but grid says some-greater", p, q)
		}
	}
}

// TestRegionRelations pins Lemma 1's region tests on hand-drawn 2-d
// regions, each relation both ways: one that holds and one that does
// not.
func TestRegionRelations(t *testing.T) {
	a := Region{MinG: []uint32{0, 0}, MaxG: []uint32{1, 1}}
	b := Region{MinG: []uint32{2, 2}, MaxG: []uint32{3, 3}}
	c := Region{MinG: []uint32{2, 0}, MaxG: []uint32{3, 1}}
	d := Region{MinG: []uint32{0, 2}, MaxG: []uint32{1, 3}}
	if !RegionDominatesRegion(a, b) {
		t.Error("a should dominate b")
	}
	if RegionDominatesRegion(b, a) {
		t.Error("b should not dominate a")
	}
	// c's corner (2,0) dominates b's (3,3), but not all of b: c may
	// dominate part of b, so they are neither incomparable nor ordered.
	if RegionsIncomparable(b, c) || RegionsIncomparable(c, b) {
		t.Error("b and c should be comparable: c's min corner dominates b's max corner")
	}
	if RegionDominatesRegion(c, b) {
		t.Error("c should not dominate all of b: c's max (3,1) is not below b's min (2,2) in x")
	}
	// c lies right of d and d above c: neither's min is below the other's
	// max in every dimension.
	if !RegionsIncomparable(c, d) || !RegionsIncomparable(d, c) {
		t.Error("c and d should be incomparable: c is right of d, d is above c")
	}
}

// Property: the three Lemma 1 relations are mutually consistent with
// exhaustive float checks over the cells.
func TestLemma1Soundness(t *testing.T) {
	e, _ := NewUnitEncoder(2, 3)
	rng := rand.New(rand.NewSource(41))
	cell := func(g []uint32) point.Point {
		// Random float point inside the cell.
		p := e.CellMin(g)
		q := e.CellMax(g)
		return point.Point{p[0] + rng.Float64()*(q[0]-p[0]), p[1] + rng.Float64()*(q[1]-p[1])}
	}
	for iter := 0; iter < 2000; iter++ {
		mk := func() Region {
			a := []uint32{uint32(rng.Intn(8)), uint32(rng.Intn(8))}
			b := []uint32{uint32(rng.Intn(8)), uint32(rng.Intn(8))}
			za, zb := e.EncodeGrid(a), e.EncodeGrid(b)
			if Compare(za, zb) > 0 {
				za, zb = zb, za
			}
			return e.RegionOf(za, zb)
		}
		ra, rb := mk(), mk()
		if RegionDominatesRegion(ra, rb) {
			// Any sampled float point of ra must dominate any of rb.
			pa := cell([]uint32{ra.MinG[0] + uint32(rng.Intn(int(ra.MaxG[0]-ra.MinG[0])+1)), ra.MinG[1] + uint32(rng.Intn(int(ra.MaxG[1]-ra.MinG[1])+1))})
			pb := cell([]uint32{rb.MinG[0] + uint32(rng.Intn(int(rb.MaxG[0]-rb.MinG[0])+1)), rb.MinG[1] + uint32(rng.Intn(int(rb.MaxG[1]-rb.MinG[1])+1))})
			if !point.Dominates(pa, pb) {
				t.Fatalf("Lemma1 case 1 unsound: %v vs %v (regions %+v %+v)", pa, pb, ra, rb)
			}
		}
		if RegionsIncomparable(ra, rb) {
			pa := cell(ra.MinG)
			pb := cell(rb.MinG)
			if point.Dominates(pa, pb) || point.Dominates(pb, pa) {
				t.Fatalf("Lemma1 case 2 unsound: %v vs %v", pa, pb)
			}
		}
	}
}

func TestDominanceVolume(t *testing.T) {
	e, err := NewEncoder(2, 4, []float64{0, 0}, []float64{16, 16})
	if err != nil {
		t.Fatal(err)
	}
	// Region a = cell block [0,4)x[0,4); region b = [8,12)x[8,12).
	a := Region{MinG: []uint32{0, 0}, MaxG: []uint32{3, 3}}
	b := Region{MinG: []uint32{8, 8}, MaxG: []uint32{11, 11}}
	// Per dim the four corner coords are {0,4,8,12}: largest 12, second
	// 8, gap 4 -> volume 16.
	if got := e.DominanceVolume(a, b); got != 16 {
		t.Errorf("DominanceVolume = %v, want 16", got)
	}
	// Commutativity.
	if e.DominanceVolume(a, b) != e.DominanceVolume(b, a) {
		t.Error("DominanceVolume not commutative")
	}
	// Identical regions: largest appears twice per dim -> gap 0.
	if got := e.DominanceVolume(a, a); got != 0 {
		t.Errorf("self volume = %v, want 0", got)
	}
}

func TestDominanceVolumeCommutativeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	e, _ := NewUnitEncoder(3, 6)
	mk := func() Region {
		a := make([]uint32, 3)
		b := make([]uint32, 3)
		for i := range a {
			a[i] = uint32(rng.Intn(64))
			b[i] = uint32(rng.Intn(64))
		}
		za, zb := e.EncodeGrid(a), e.EncodeGrid(b)
		if Compare(za, zb) > 0 {
			za, zb = zb, za
		}
		return e.RegionOf(za, zb)
	}
	for i := 0; i < 1000; i++ {
		ra, rb := mk(), mk()
		v1, v2 := e.DominanceVolume(ra, rb), e.DominanceVolume(rb, ra)
		if v1 != v2 {
			t.Fatalf("volume not commutative: %v vs %v", v1, v2)
		}
		if v1 < 0 {
			t.Fatalf("negative volume %v", v1)
		}
	}
}

func TestMultiWordAddresses(t *testing.T) {
	// 10 dims x 16 bits = 160 bits = 3 words.
	e, err := NewUnitEncoder(10, 16)
	if err != nil {
		t.Fatal(err)
	}
	if e.Words() != 3 {
		t.Fatalf("Words = %d, want 3", e.Words())
	}
	rng := rand.New(rand.NewSource(47))
	for iter := 0; iter < 500; iter++ {
		g := make([]uint32, 10)
		for i := range g {
			g[i] = uint32(rng.Intn(1 << 16))
		}
		got := e.DecodeGrid(e.EncodeGrid(g))
		for i := range g {
			if got[i] != g[i] {
				t.Fatalf("multi-word roundtrip failed at dim %d", i)
			}
		}
	}
}

func TestCellCorners(t *testing.T) {
	e, err := NewEncoder(1, 2, []float64{0}, []float64{8})
	if err != nil {
		t.Fatal(err)
	}
	// 4 cells of width 2.
	if lo := e.CellMin([]uint32{1})[0]; lo != 2 {
		t.Errorf("CellMin = %v, want 2", lo)
	}
	if hi := e.CellMax([]uint32{1})[0]; hi != 4 {
		t.Errorf("CellMax = %v, want 4", hi)
	}
}
