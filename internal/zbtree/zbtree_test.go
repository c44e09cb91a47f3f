package zbtree

import (
	"math/rand"
	"testing"

	"zskyline/internal/metrics"
	"zskyline/internal/point"
	"zskyline/internal/seq"
	"zskyline/internal/zorder"
)

func unitEnc(t testing.TB, dims, bits int) *zorder.Encoder {
	t.Helper()
	e, err := zorder.NewUnitEncoder(dims, bits)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func randPts(r *rand.Rand, n, d, domain int) []point.Point {
	pts := make([]point.Point, n)
	for i := range pts {
		p := make(point.Point, d)
		for k := range p {
			if domain > 0 {
				p[k] = float64(r.Intn(domain)) / float64(domain)
			} else {
				p[k] = r.Float64()
			}
		}
		pts[i] = p
	}
	return pts
}

// buildPts indexes pts in a fresh store, one row per point in input
// order.
func buildPts(enc *zorder.Encoder, fanout int, pts []point.Point, tally *metrics.Tally) *BlockTree {
	return BuildStore(NewStore(enc, point.BlockOf(enc.Dims(), pts)), fanout, tally)
}

// rowPoints copies rows of t's store out as points.
func rowPoints(t *BlockTree, rows []int32) []point.Point {
	b, _ := t.Store().CompactRows(rows)
	return b.Points()
}

// withProbe indexes pts and appends q as one more store row that the
// tree does not hold, so the row-based mutators can take q.
func withProbe(enc *zorder.Encoder, fanout int, pts []point.Point, q point.Point) (*BlockTree, int32) {
	all := append(append([]point.Point(nil), pts...), q)
	st := NewStore(enc, point.BlockOf(enc.Dims(), all))
	rows := make([]int32, len(pts))
	for i := range rows {
		rows[i] = int32(i)
	}
	return BuildRows(st, fanout, rows, nil), int32(len(pts))
}

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

func TestBuildEmptyAndSmall(t *testing.T) {
	enc := unitEnc(t, 2, 8)
	tr := buildPts(enc, 4, nil, nil)
	if !tr.Empty() || tr.Len() != 0 || len(tr.Rows()) != 0 {
		t.Errorf("empty tree: len=%d rows=%v", tr.Len(), tr.Rows())
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	tr = buildPts(enc, 4, []point.Point{{0.5, 0.5}}, nil)
	if tr.Len() != 1 || len(tr.Rows()) != 1 {
		t.Errorf("singleton: len=%d", tr.Len())
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBuildInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 3, 4, 5, 16, 17, 64, 100, 257, 1000} {
		for _, fanout := range []int{2, 3, 4, 16} {
			enc := unitEnc(t, 3, 10)
			tr := buildPts(enc, fanout, randPts(rng, n, 3, 0), nil)
			if tr.Len() != n {
				t.Fatalf("n=%d fanout=%d: Len=%d", n, fanout, tr.Len())
			}
			if err := tr.Validate(); err != nil {
				t.Fatalf("n=%d fanout=%d: %v", n, fanout, err)
			}
		}
	}
}

func TestEntriesAreZSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	enc := unitEnc(t, 4, 8)
	tr := buildPts(enc, 8, randPts(rng, 500, 4, 0), nil)
	rows := tr.Rows()
	if len(rows) != 500 {
		t.Fatalf("Rows len = %d", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if zorder.Compare(tr.Store().Z(rows[i-1]), tr.Store().Z(rows[i])) > 0 {
			t.Fatalf("rows out of Z-order at %d", i)
		}
	}
}

// Appending rows in Z-order, one at a time, must give a valid tree
// holding the bulk build's rows in the bulk build's order.
func TestAppendMatchesBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	enc := unitEnc(t, 3, 8)
	for _, n := range []int{1, 2, 7, 33, 200, 1025} {
		bulk := buildPts(enc, 4, randPts(rng, n, 3, 0), nil)
		tr := NewBlockTree(bulk.Store(), 4, nil)
		for _, row := range bulk.Rows() {
			tr.Append(row)
		}
		if tr.Len() != n {
			t.Fatalf("append n=%d: Len=%d", n, tr.Len())
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("append n=%d: %v", n, err)
		}
		got, want := tr.Rows(), bulk.Rows()
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("append vs build mismatch at %d", i)
			}
		}
	}
}

func TestAppendOutOfOrderPanics(t *testing.T) {
	enc := unitEnc(t, 2, 8)
	st := NewStore(enc, point.BlockOf(2, []point.Point{{0.9, 0.9}, {0.1, 0.1}}))
	tr := NewBlockTree(st, 4, nil)
	tr.Append(0)
	defer func() {
		if recover() == nil {
			t.Error("out-of-order Append did not panic")
		}
	}()
	tr.Append(1)
}

func TestDominatesPoint(t *testing.T) {
	enc := unitEnc(t, 2, 8)
	tr := buildPts(enc, 4, []point.Point{{0.5, 0.5}, {0.1, 0.9}}, nil)
	cases := []struct {
		p    point.Point
		want bool
	}{
		{point.Point{0.6, 0.6}, true},  // dominated by (0.5,0.5)
		{point.Point{0.5, 0.5}, false}, // equal, not dominated
		{point.Point{0.4, 0.4}, false}, // dominates the tree point
		{point.Point{0.2, 0.95}, true}, // dominated by (0.1,0.9)
		{point.Point{0.05, 0.05}, false},
	}
	for _, c := range cases {
		if got := tr.DominatesPoint(enc.Grid(c.p), c.p); got != c.want {
			t.Errorf("DominatesPoint(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

// Property: DominatesPoint agrees with a linear scan, also past the
// d = 32 its lane buffer holds on the stack.
func TestDominatesPointAgreesWithScan(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for iter := 0; iter < 64; iter++ {
		d := 1 + rng.Intn(5)
		if iter >= 60 {
			d = 40
		}
		enc := unitEnc(t, d, 6) // coarse grid: exercise tie handling
		pts := randPts(rng, 150, d, 8)
		tr := buildPts(enc, 4, pts, nil)
		for probe := 0; probe < 30; probe++ {
			q := randPts(rng, 1, d, 8)[0]
			want := false
			for _, p := range pts {
				if point.Dominates(p, q) {
					want = true
					break
				}
			}
			if got := tr.DominatesPoint(enc.Grid(q), q); got != want {
				t.Fatalf("DominatesPoint(%v) = %v, want %v", q, got, want)
			}
		}
	}
}

// Property: RemoveDominatedBy removes exactly the dominated rows and
// leaves a tree whose rows are the survivors.
func TestRemoveDominatedBy(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 60; iter++ {
		d := 1 + rng.Intn(4)
		enc := unitEnc(t, d, 6)
		pts := randPts(rng, 120, d, 6)
		q := randPts(rng, 1, d, 6)[0]
		tr, qRow := withProbe(enc, 4, pts, q)
		var want []point.Point
		for _, p := range pts {
			if !point.Dominates(q, p) {
				want = append(want, p)
			}
		}
		if got := tr.RemoveDominatedBy(qRow); got != len(pts)-len(want) {
			t.Fatalf("removed %d, want %d", got, len(pts)-len(want))
		}
		sameSet(t, rowPoints(tr, tr.Rows()), want, "survivors")
		if tr.Len() != len(want) {
			t.Fatalf("Len=%d want %d", tr.Len(), len(want))
		}
	}
}

func TestRemoveAllThenEmpty(t *testing.T) {
	enc := unitEnc(t, 2, 8)
	tr, q := withProbe(enc, 2, []point.Point{{0.5, 0.5}, {0.6, 0.6}, {0.9, 0.9}}, point.Point{0.01, 0.01})
	if got := tr.RemoveDominatedBy(q); got != 3 {
		t.Fatalf("removed %d, want 3", got)
	}
	if !tr.Empty() {
		t.Error("tree should be empty")
	}
}

func TestDominatesAllOfRegion(t *testing.T) {
	enc := unitEnc(t, 2, 8)
	tr := buildPts(enc, 4, []point.Point{{0.1, 0.1}}, nil)
	// Region well above the point.
	hi := enc.Encode(point.Point{0.6, 0.6})
	r := enc.RegionOf(enc.Encode(point.Point{0.5, 0.5}), hi)
	if !tr.DominatesAllOfRegion(r) {
		t.Error("point should dominate the whole region")
	}
	// Region containing the point itself can never be fully dominated.
	r2 := enc.RegionOf(enc.Encode(point.Point{0, 0}), hi)
	if tr.DominatesAllOfRegion(r2) {
		t.Error("region containing the dominator cannot be fully dominated")
	}
}

func TestSkylineMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for iter := 0; iter < 80; iter++ {
		d := 1 + rng.Intn(6)
		bits := []int{4, 8, 16}[rng.Intn(3)]
		n := rng.Intn(300)
		domain := 0
		if iter%3 == 0 {
			domain = 2 + rng.Intn(8) // tie-heavy
		}
		enc := unitEnc(t, d, bits)
		pts := randPts(rng, n, d, domain)
		want := seq.BruteForce(pts)
		got := ZSearch(enc, 4+rng.Intn(12), pts, nil)
		sameSet(t, got, want, "zsearch")
	}
}

func TestSkylineAntiChain(t *testing.T) {
	enc := unitEnc(t, 2, 16)
	var pts []point.Point
	for i := 0; i < 64; i++ {
		pts = append(pts, point.Point{float64(i) / 64, float64(63-i) / 64})
	}
	got := ZSearch(enc, 8, pts, nil)
	if len(got) != 64 {
		t.Fatalf("anti-chain skyline = %d, want 64", len(got))
	}
}

func TestSkylineDuplicates(t *testing.T) {
	enc := unitEnc(t, 2, 8)
	pts := []point.Point{{0.3, 0.3}, {0.3, 0.3}, {0.7, 0.7}}
	got := ZSearch(enc, 4, pts, nil)
	if len(got) != 2 {
		t.Fatalf("duplicates: skyline = %v, want both copies of (0.3,0.3)", got)
	}
}

// The skyline rows bulk-load into a valid tree of exactly the skyline.
func TestSkylineTreeValidatesAndMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	enc := unitEnc(t, 4, 10)
	pts := randPts(rng, 400, 4, 0)
	tr := buildPts(enc, 8, pts, nil)
	skyTree := BuildRows(tr.Store(), 8, tr.SkylineRows(), nil)
	if err := skyTree.Validate(); err != nil {
		t.Fatal(err)
	}
	sameSet(t, rowPoints(skyTree, skyTree.Rows()), seq.BruteForce(pts), "skyline tree")
}

// mergeSkylines Z-merges candidate skylines the way phase 3 does: one
// shared store over their concatenation, one tree per set, MergeBlock
// folded left to right. It returns the merged skyline's points.
func mergeSkylines(enc *zorder.Encoder, fanout int, tally *metrics.Tally, sets ...[]point.Point) []point.Point {
	var all []point.Point
	for _, s := range sets {
		all = append(all, s...)
	}
	st := NewStore(enc, point.BlockOf(enc.Dims(), all))
	acc, lo := NewBlockTree(st, fanout, tally), int32(0)
	for _, s := range sets {
		rows := make([]int32, len(s))
		for i := range rows {
			rows[i] = lo + int32(i)
		}
		lo += int32(len(s))
		acc = MergeBlock(acc, BuildRows(st, fanout, rows, tally))
	}
	return rowPoints(acc, acc.Rows())
}

func TestMergeTwoSkylines(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for iter := 0; iter < 60; iter++ {
		d := 1 + rng.Intn(5)
		enc := unitEnc(t, d, 8)
		a := randPts(rng, 100+rng.Intn(100), d, 0)
		b := randPts(rng, 100+rng.Intn(100), d, 0)
		merged := mergeSkylines(enc, 8, nil, seq.BruteForce(a), seq.BruteForce(b))
		want := seq.BruteForce(append(append([]point.Point{}, a...), b...))
		sameSet(t, merged, want, "merge")
	}
}

func TestMergeWithEmpty(t *testing.T) {
	enc := unitEnc(t, 2, 8)
	st := NewStore(enc, point.BlockOf(2, []point.Point{{0.1, 0.9}, {0.9, 0.1}}))
	empty := NewBlockTree(st, 4, nil)
	if got := MergeBlock(empty, BuildStore(st, 4, nil)); got.Len() != 2 {
		t.Errorf("merge(empty, sky) len = %d", got.Len())
	}
	if got := MergeBlock(BuildStore(st, 4, nil), empty); got.Len() != 2 {
		t.Errorf("merge(sky, empty) len = %d", got.Len())
	}
}

func TestMergeDisjointIncomparableSets(t *testing.T) {
	// Two anti-chain halves that are mutually incomparable: stash path.
	enc := unitEnc(t, 2, 10)
	var a, b []point.Point
	for i := 0; i < 20; i++ {
		a = append(a, point.Point{float64(i) / 100, float64(40-i) / 100})
		b = append(b, point.Point{float64(60+i) / 100, float64(20-i) / 1000})
	}
	merged := mergeSkylines(enc, 4, nil, seq.BruteForce(a), seq.BruteForce(b))
	want := seq.BruteForce(append(append([]point.Point{}, a...), b...))
	sameSet(t, merged, want, "disjoint merge")
}

func TestMergeAllManyGroups(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for iter := 0; iter < 20; iter++ {
		d := 2 + rng.Intn(4)
		enc := unitEnc(t, d, 8)
		var all []point.Point
		var skies [][]point.Point
		groups := 2 + rng.Intn(6)
		for g := 0; g < groups; g++ {
			pts := randPts(rng, 50+rng.Intn(100), d, 0)
			all = append(all, pts...)
			skies = append(skies, seq.BruteForce(pts))
		}
		sameSet(t, mergeSkylines(enc, 8, nil, skies...), seq.BruteForce(all), "merge-all")
	}
}

func TestTallyCountsRegionTests(t *testing.T) {
	tal := &metrics.Tally{}
	rng := rand.New(rand.NewSource(23))
	enc := unitEnc(t, 5, 10)
	ZSearch(enc, 8, randPts(rng, 500, 5, 0), tal)
	s := tal.Snapshot()
	if s.RegionTests == 0 || s.DominanceTests == 0 {
		t.Errorf("tally = %+v, want nonzero region and dominance tests", s)
	}
}

// Z-merge should do far fewer point dominance tests than recomputing
// the union skyline with SB when the sets are large and incomparable.
func TestMergeCheaperThanRecompute(t *testing.T) {
	enc := unitEnc(t, 2, 16)
	var a, b []point.Point
	for i := 0; i < 400; i++ {
		a = append(a, point.Point{float64(i) / 1000, float64(999-i) / 1000})
		b = append(b, point.Point{float64(500+i/2) / 1000, float64(400-i) / 1000})
	}
	talM := &metrics.Tally{}
	mergeSkylines(enc, 16, talM, seq.BruteForce(a), seq.BruteForce(b))
	talS := &metrics.Tally{}
	seq.SB(append(append([]point.Point{}, a...), b...), talS)
	if talM.Snapshot().DominanceTests >= talS.Snapshot().DominanceTests {
		t.Errorf("Z-merge used %d point tests vs SB %d; expected fewer",
			talM.Snapshot().DominanceTests, talS.Snapshot().DominanceTests)
	}
}

func BenchmarkZSearch5k5d(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	enc := unitEnc(b, 5, 16)
	pts := randPts(rng, 5000, 5, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ZSearch(enc, 16, pts, nil)
	}
}

func BenchmarkMergeAnti(b *testing.B) {
	enc := unitEnc(b, 2, 16)
	var a2, b2 []point.Point
	for i := 0; i < 2000; i++ {
		a2 = append(a2, point.Point{float64(i) / 4000, float64(3999-i) / 4000})
		b2 = append(b2, point.Point{float64(2000+i) / 4000, float64(1999-i) / 4000})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mergeSkylines(enc, 16, nil, a2, b2)
	}
}

func TestDominatorsOf(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for iter := 0; iter < 40; iter++ {
		d := 2 + rng.Intn(3)
		enc := unitEnc(t, d, 8)
		pts := randPts(rng, 200, d, 6)
		tr := buildPts(enc, 8, pts, nil)
		q := randPts(rng, 1, d, 6)[0]
		var want []point.Point
		for _, p := range pts {
			if point.Dominates(p, q) {
				want = append(want, p)
			}
		}
		sameSet(t, rowPoints(tr, tr.DominatorsOf(enc.Grid(q), q)), want, "dominators")
	}
}

func TestCountDominatedByMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	for iter := 0; iter < 40; iter++ {
		d := 2 + rng.Intn(3)
		enc := unitEnc(t, d, 8)
		pts := randPts(rng, 200, d, 6)
		tr := buildPts(enc, 8, pts, nil)
		q := randPts(rng, 1, d, 6)[0]
		if iter%4 == 0 {
			q = make(point.Point, d) // the origin: whole subtrees count at once
		}
		want := 0
		for _, p := range pts {
			if point.Dominates(q, p) {
				want++
			}
		}
		if got := tr.CountDominatedBy(enc.Grid(q), q); got != want {
			t.Fatalf("count = %d, want %d", got, want)
		}
	}
}
