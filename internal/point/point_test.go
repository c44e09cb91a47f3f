package point

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDominatesBasics(t *testing.T) {
	cases := []struct {
		name string
		p, q Point
		want bool
	}{
		{"strictly better both dims", Point{1, 1}, Point{2, 2}, true},
		{"better one equal other", Point{1, 2}, Point{2, 2}, true},
		{"equal points", Point{1, 2}, Point{1, 2}, false},
		{"worse one dim", Point{1, 3}, Point{2, 2}, false},
		{"incomparable", Point{0, 5}, Point{5, 0}, false},
		{"dominated direction", Point{2, 2}, Point{1, 1}, false},
		{"mismatched dims", Point{1}, Point{1, 2}, false},
		{"single dim strict", Point{1}, Point{2}, true},
		{"single dim equal", Point{1}, Point{1}, false},
		{"negative coords", Point{-3, -1}, Point{-2, -1}, true},
	}
	for _, c := range cases {
		if got := Dominates(c.p, c.q); got != c.want {
			t.Errorf("%s: Dominates(%v, %v) = %v, want %v", c.name, c.p, c.q, got, c.want)
		}
	}
}

func TestDominatesOrEqual(t *testing.T) {
	if !DominatesOrEqual(Point{1, 2}, Point{1, 2}) {
		t.Error("equal points should be DominatesOrEqual")
	}
	if DominatesOrEqual(Point{1, 3}, Point{1, 2}) {
		t.Error("worse dim should fail DominatesOrEqual")
	}
	if DominatesOrEqual(Point{1}, Point{1, 2}) {
		t.Error("mismatched dims should fail")
	}
}

func TestCompare(t *testing.T) {
	cases := []struct {
		p, q Point
		want Relation
	}{
		{Point{1, 1}, Point{2, 2}, PDominatesQ},
		{Point{2, 2}, Point{1, 1}, QDominatesP},
		{Point{1, 2}, Point{1, 2}, Equal},
		{Point{0, 5}, Point{5, 0}, Incomparable},
	}
	for _, c := range cases {
		if got := Compare(c.p, c.q); got != c.want {
			t.Errorf("Compare(%v, %v) = %v, want %v", c.p, c.q, got, c.want)
		}
	}
}

// Property: Compare agrees with the two Dominates calls.
func TestCompareAgreesWithDominates(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := 1 + r.Intn(6)
		p, q := make(Point, d), make(Point, d)
		for i := 0; i < d; i++ {
			// Small integer domain to generate plenty of ties.
			p[i] = float64(r.Intn(4))
			q[i] = float64(r.Intn(4))
		}
		rel := Compare(p, q)
		pd, qd := Dominates(p, q), Dominates(q, p)
		switch rel {
		case PDominatesQ:
			return pd && !qd
		case QDominatesP:
			return qd && !pd
		case Equal:
			return !pd && !qd && p.Equal(q)
		default:
			return !pd && !qd && !p.Equal(q)
		}
	}
	cfg := &quick.Config{MaxCount: 2000, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: dominance is irreflexive, asymmetric, and transitive.
func TestDominanceIsStrictPartialOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	gen := func(r *rand.Rand, d int) Point {
		p := make(Point, d)
		for i := range p {
			p[i] = float64(r.Intn(5))
		}
		return p
	}
	for iter := 0; iter < 3000; iter++ {
		d := 1 + rng.Intn(5)
		a, b, c := gen(rng, d), gen(rng, d), gen(rng, d)
		if Dominates(a, a) {
			t.Fatalf("irreflexivity violated: %v", a)
		}
		if Dominates(a, b) && Dominates(b, a) {
			t.Fatalf("asymmetry violated: %v %v", a, b)
		}
		if Dominates(a, b) && Dominates(b, c) && !Dominates(a, c) {
			t.Fatalf("transitivity violated: %v %v %v", a, b, c)
		}
	}
}

// Property: SumOrder is a linear extension of dominance — no row is
// dominated by a row after it — even where float sums tie or a naive
// sum is NaN, and exact duplicates keep their input order.
func TestSumOrderIsLinearExtension(t *testing.T) {
	vals := []float64{math.Inf(-1), -1, 0, 0.1, 0.2, 0.3, 0.30000000000000004, 1e16, math.Inf(1)}
	rng := rand.New(rand.NewSource(17))
	for iter := 0; iter < 500; iter++ {
		d := 1 + rng.Intn(6)
		b := Block{Dims: d, Data: make([]float64, d*rng.Intn(40))}
		for i := range b.Data {
			b.Data[i] = vals[rng.Intn(len(vals))]
		}
		order := SumOrder(b)
		if len(order) != b.Len() {
			t.Fatalf("SumOrder returned %d rows of %d", len(order), b.Len())
		}
		for i, ri := range order {
			for _, rj := range order[i+1:] {
				if DominatesRows(b, int(rj), b, int(ri)) {
					t.Fatalf("row %v (index %d) precedes its dominator %v (index %d)", b.Row(int(ri)), ri, b.Row(int(rj)), rj)
				}
				if b.Row(int(ri)).Equal(b.Row(int(rj))) && ri > rj {
					t.Fatalf("duplicate rows %d and %d out of input order", rj, ri)
				}
			}
		}
	}
}

func TestNewDatasetValidation(t *testing.T) {
	if _, err := NewDataset(0, nil); err == nil {
		t.Error("zero dims should fail")
	}
	if _, err := NewDataset(2, []Point{{1}}); err == nil {
		t.Error("dim mismatch should fail")
	}
	nan := 0.0
	nan /= nan
	if _, err := NewDataset(1, []Point{{nan}}); err == nil {
		t.Error("NaN coordinate should fail")
	}
	ds, err := NewDataset(2, []Point{{1, 2}, {3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if ds.Len() != 2 {
		t.Errorf("Len = %d, want 2", ds.Len())
	}
}

func TestBounds(t *testing.T) {
	ds := MustDataset(2, []Point{{1, 9}, {4, 2}, {3, 5}})
	mins, maxs, err := ds.Bounds()
	if err != nil {
		t.Fatal(err)
	}
	if mins[0] != 1 || mins[1] != 2 || maxs[0] != 4 || maxs[1] != 9 {
		t.Errorf("bounds = %v %v", mins, maxs)
	}
	empty := &Dataset{Dims: 2}
	if _, _, err := empty.Bounds(); err == nil {
		t.Error("empty dataset bounds should fail")
	}
}

func TestCloneIndependence(t *testing.T) {
	ds := MustDataset(2, []Point{{1, 2}})
	cp := ds.Clone()
	cp.Points[0][0] = 99
	if ds.Points[0][0] != 1 {
		t.Error("Clone shares backing arrays")
	}
}

func TestSortLexicographic(t *testing.T) {
	pts := []Point{{2, 1}, {1, 9}, {1, 3}, {2, 0}}
	SortLexicographic(pts)
	want := []Point{{1, 3}, {1, 9}, {2, 0}, {2, 1}}
	for i := range want {
		if !pts[i].Equal(want[i]) {
			t.Fatalf("sorted[%d] = %v, want %v", i, pts[i], want[i])
		}
	}
}

func TestMinMaxCorner(t *testing.T) {
	p, q := Point{1, 5}, Point{3, 2}
	if got := MinCorner(p, q); !got.Equal(Point{1, 2}) {
		t.Errorf("MinCorner = %v", got)
	}
	if got := MaxCorner(p, q); !got.Equal(Point{3, 5}) {
		t.Errorf("MaxCorner = %v", got)
	}
}

func TestStringRendering(t *testing.T) {
	if got := (Point{1, 2.5}).String(); got != "(1, 2.5)" {
		t.Errorf("String = %q", got)
	}
}

// DominatesRows steps four coordinates at a time with a tail; it must
// agree with Dominates on widths either side of every boundary, ties
// included (small integer domain).
func TestDominatesRowsMatchesDominates(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, d := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 13} {
		bb := NewBlockBuilder(d, 64)
		for i := 0; i < 64; i++ {
			for k, row := 0, bb.Extend(); k < d; k++ {
				row[k] = float64(rng.Intn(3))
			}
		}
		b := bb.Build()
		for i := 0; i < b.Len(); i++ {
			for j := 0; j < b.Len(); j++ {
				if got, want := DominatesRows(b, i, b, j), Dominates(b.Row(i), b.Row(j)); got != want {
					t.Fatalf("d=%d: DominatesRows(%v, %v) = %v, want %v", d, b.Row(i), b.Row(j), got, want)
				}
			}
		}
	}
}

// Random row pairs of an anti-correlated block: the shape of the
// dominance tests a high-d skyline query is made of.
func BenchmarkDominatesRowsAntiD8(b *testing.B) {
	const n, d = 4096, 8
	rng := rand.New(rand.NewSource(7))
	bb := NewBlockBuilder(d, n)
	for i := 0; i < n; i++ {
		row := bb.Extend()
		sum := 0.5 + 0.5*rng.Float64()
		for k := range row {
			row[k] = sum * rng.Float64()
		}
	}
	blk := bb.Build()
	pairs := make([]int32, 2<<12)
	for k := range pairs {
		pairs[k] = int32(rng.Intn(n))
	}
	hits := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := 0; k < len(pairs); k += 2 {
			if DominatesRows(blk, int(pairs[k]), blk, int(pairs[k+1])) {
				hits++
			}
		}
	}
	b.ReportMetric(b.Elapsed().Seconds()*1e9/float64(b.N)/float64(len(pairs)/2), "ns/test")
	benchSink = hits
}

var benchSink int
