package dominance_test

// k-dominance through the sort-filter kernel, seq.SBRows: the cases the
// retired internal/kdom facade carried, on dominance.NewKDom directly.

import (
	"math/rand"
	"testing"

	"zskyline/internal/dominance"
	"zskyline/internal/gen"
	"zskyline/internal/metrics"
	"zskyline/internal/point"
	"zskyline/internal/seq"
)

// kDominates is p k-dominates q, false for a k no provider accepts.
func kDominates(p, q point.Point, k int) bool {
	prov, err := dominance.NewKDom(k)
	return err == nil && prov.Dominates(p, q)
}

// kSkyline is the k-dominant skyline of pts.
func kSkyline(t *testing.T, pts []point.Point, k int, tally *metrics.Tally) []point.Point {
	t.Helper()
	prov, err := dominance.NewKDom(k)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) == 0 {
		return nil
	}
	b := point.BlockOf(len(pts[0]), pts)
	return b.Select(seq.SBRows(prov, b, tally)).Points()
}

func TestKDominatesBasics(t *testing.T) {
	cases := []struct {
		p, q point.Point
		k    int
		want bool
	}{
		{point.Point{1, 1, 9}, point.Point{2, 2, 0}, 2, true},  // better on 2 of 3
		{point.Point{1, 1, 9}, point.Point{2, 2, 0}, 3, false}, // worse on dim 3
		{point.Point{1, 1, 1}, point.Point{2, 2, 2}, 3, true},  // full dominance
		{point.Point{1, 1}, point.Point{1, 1}, 2, false},       // equal never dominates
		{point.Point{1, 2}, point.Point{1, 2}, 1, false},       // equal, any k
		{point.Point{0, 9}, point.Point{1, 0}, 1, true},        // 1-dominance is very easy
		{point.Point{1}, point.Point{1, 2}, 1, false},          // dim mismatch
		{point.Point{1, 1}, point.Point{2, 2}, 0, false},       // invalid k
		{point.Point{1, 1}, point.Point{2, 2}, 3, false},       // k > d
	}
	for _, c := range cases {
		if got := kDominates(c.p, c.q, c.k); got != c.want {
			t.Errorf("kDominates(%v, %v, %d) = %v, want %v", c.p, c.q, c.k, got, c.want)
		}
	}
}

// Property: classic dominance implies k-dominance for every valid k.
func TestClassicImpliesKDominance(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for iter := 0; iter < 3000; iter++ {
		d := 2 + rng.Intn(5)
		p := make(point.Point, d)
		q := make(point.Point, d)
		for i := 0; i < d; i++ {
			p[i] = float64(rng.Intn(4))
			q[i] = float64(rng.Intn(4))
		}
		if point.Dominates(p, q) {
			for k := 1; k <= d; k++ {
				if !kDominates(p, q, k) {
					t.Fatalf("classic dominance without %d-dominance: %v %v", k, p, q)
				}
			}
		}
	}
}

// Property: the window-plus-verification kernel equals the brute-force
// k-dominant skyline, over random widths and every k they admit.
func TestTwoScanMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 80; iter++ {
		d := 2 + rng.Intn(5)
		k := 1 + rng.Intn(d)
		n := rng.Intn(250)
		pts := make([]point.Point, n)
		for i := range pts {
			p := make(point.Point, d)
			for j := range p {
				if iter%2 == 0 {
					p[j] = float64(rng.Intn(5))
				} else {
					p[j] = rng.Float64()
				}
			}
			pts[i] = p
		}
		prov, err := dominance.NewKDom(k)
		if err != nil {
			t.Fatal(err)
		}
		want := dominance.BruteForce(prov, pts)
		got := kSkyline(t, pts, k, nil)
		if len(got) != len(want) {
			t.Fatalf("d=%d k=%d n=%d: got %d, want %d", d, k, n, len(got), len(want))
		}
		g := append([]point.Point(nil), got...)
		w := append([]point.Point(nil), want...)
		point.SortLexicographic(g)
		point.SortLexicographic(w)
		for i := range g {
			if !g[i].Equal(w[i]) {
				t.Fatalf("mismatch at %d", i)
			}
		}
	}
}

// Property: k=d reproduces the classic skyline; the k-dominant skyline
// is a subset of the classic one and shrinks (weakly) as k decreases.
func TestContainmentHierarchy(t *testing.T) {
	ds := gen.Synthetic(gen.Independent, 800, 5, 11)
	classic := seq.BruteForce(ds.Points)
	full := kSkyline(t, ds.Points, 5, nil)
	if len(full) != len(classic) {
		t.Fatalf("k=d gave %d, classic %d", len(full), len(classic))
	}
	prev := len(full)
	for k := 4; k >= 2; k-- {
		sub := kSkyline(t, ds.Points, k, nil)
		if len(sub) > prev {
			t.Fatalf("k=%d grew the result: %d > %d", k, len(sub), prev)
		}
		inClassic := map[string]int{}
		for _, p := range classic {
			inClassic[p.String()]++
		}
		for _, p := range sub {
			if inClassic[p.String()] == 0 {
				t.Fatalf("k=%d point %v not in classic skyline", k, p)
			}
			inClassic[p.String()]--
		}
		prev = len(sub)
	}
}

// The headline behaviour: in high dimensions the k-dominant skyline is
// much smaller than the full skyline.
func TestShrinksHighDimensionalSkylines(t *testing.T) {
	ds := gen.Synthetic(gen.AntiCorrelated, 1000, 8, 13)
	full := kSkyline(t, ds.Points, 8, nil)
	reduced := kSkyline(t, ds.Points, 6, nil)
	if len(reduced) >= len(full)/2 {
		t.Errorf("6-dominant skyline %d not much smaller than full %d", len(reduced), len(full))
	}
}

func TestDuplicatesSurvive(t *testing.T) {
	pts := []point.Point{{1, 1}, {1, 1}, {5, 5}}
	if got := kSkyline(t, pts, 2, nil); len(got) != 2 {
		t.Fatalf("duplicates: got %d, want 2 copies of (1,1)", len(got))
	}
}

func TestTally(t *testing.T) {
	tal := &metrics.Tally{}
	ds := gen.Synthetic(gen.Independent, 300, 4, 1)
	kSkyline(t, ds.Points, 3, tal)
	if tal.Snapshot().DominanceTests == 0 {
		t.Error("no tests recorded")
	}
}
