package zbtree

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"zskyline/internal/point"
	"zskyline/internal/seq"
)

// progressive collects every row SkylineProgressive emits.
func progressive(ctx context.Context, tr *BlockTree) []int32 {
	var rows []int32
	tr.SkylineProgressive(ctx, func(row int32) bool {
		rows = append(rows, row)
		return true
	})
	return rows
}

func TestSkylineProgressiveMatchesBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for iter := 0; iter < 40; iter++ {
		d := 2 + rng.Intn(4)
		enc := unitEnc(t, d, 6) // coarse grid: force same-address ties
		pts := randPts(rng, 250, d, 5)
		tr := buildPts(enc, 8, pts, nil)
		sameSet(t, rowPoints(tr, progressive(context.Background(), tr)), seq.BruteForce(pts), "progressive")
	}
}

// Cancelling the context or refusing a row stops the walk: no row is
// emitted after either.
func TestSkylineProgressiveCancellation(t *testing.T) {
	enc := unitEnc(t, 2, 16)
	// Anti-chain: everything is skyline, so the stream is long.
	var pts []point.Point
	for i := 0; i < 5000; i++ {
		pts = append(pts, point.Point{float64(i) / 5000, float64(4999-i) / 5000})
	}
	tr := buildPts(enc, 8, pts, nil)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	got := 0
	done := make(chan struct{})
	go func() {
		defer close(done)
		tr.SkylineProgressive(ctx, func(int32) bool {
			got++
			if got == 10 {
				cancel()
			}
			return ctx.Err() == nil
		})
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("progressive walk did not stop after cancel")
	}
	if got != 10 {
		t.Fatalf("emitted %d rows, want 10", got)
	}
	refused := 0
	tr.SkylineProgressive(context.Background(), func(int32) bool {
		refused++
		return false
	})
	if refused != 1 {
		t.Fatalf("walk asked %d times after emit refused, want 1", refused)
	}
}

func TestSkylineProgressiveEmpty(t *testing.T) {
	enc := unitEnc(t, 2, 8)
	if rows := progressive(context.Background(), buildPts(enc, 4, nil, nil)); len(rows) != 0 {
		t.Errorf("empty tree streamed %d rows", len(rows))
	}
}

func inBox(p, lo, hi point.Point) bool {
	for k := range p {
		if p[k] < lo[k] || p[k] > hi[k] {
			return false
		}
	}
	return true
}

func TestRangeQueryMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for iter := 0; iter < 40; iter++ {
		d := 2 + rng.Intn(3)
		enc := unitEnc(t, d, 8)
		pts := randPts(rng, 300, d, 10)
		tr := buildPts(enc, 8, pts, nil)
		lo := make(point.Point, d)
		hi := make(point.Point, d)
		for k := 0; k < d; k++ {
			a, b := rng.Float64(), rng.Float64()
			if a > b {
				a, b = b, a
			}
			lo[k], hi[k] = a, b
		}
		var want []point.Point
		for _, p := range pts {
			if inBox(p, lo, hi) {
				want = append(want, p)
			}
		}
		sameSet(t, rowPoints(tr, tr.RangeRows(lo, hi)), want, "range")
	}
}

// skylineWithin is the constrained skyline as the public Index runs it:
// range rows, a tree over them, Z-search.
func skylineWithin(tr *BlockTree, lo, hi point.Point) []point.Point {
	in := BuildRows(tr.Store(), 0, tr.RangeRows(lo, hi), nil)
	return rowPoints(tr, in.SkylineRows())
}

func TestSkylineWithinMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	for iter := 0; iter < 30; iter++ {
		d := 2 + rng.Intn(3)
		enc := unitEnc(t, d, 8)
		pts := randPts(rng, 300, d, 0)
		tr := buildPts(enc, 8, pts, nil)
		lo := make(point.Point, d)
		hi := make(point.Point, d)
		for k := 0; k < d; k++ {
			lo[k], hi[k] = 0.2, 0.9
		}
		var inside []point.Point
		for _, p := range pts {
			if inBox(p, lo, hi) {
				inside = append(inside, p)
			}
		}
		sameSet(t, skylineWithin(tr, lo, hi), seq.BruteForce(inside), "constrained")
	}
}

// A point dominated globally can re-enter the constrained skyline when
// its dominator is outside the box.
func TestConstrainedResurrection(t *testing.T) {
	enc := unitEnc(t, 2, 10)
	pts := []point.Point{{0.05, 0.05}, {0.5, 0.5}}
	tr := buildPts(enc, 4, pts, nil)
	if n := len(tr.SkylineRows()); n != 1 {
		t.Fatalf("global skyline = %d", n)
	}
	got := skylineWithin(tr, point.Point{0.3, 0.3}, point.Point{1, 1})
	if len(got) != 1 || !got[0].Equal(point.Point{0.5, 0.5}) {
		t.Fatalf("constrained skyline = %v", got)
	}
}
