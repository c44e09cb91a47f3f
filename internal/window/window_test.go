package window

import (
	"math/rand"
	"testing"

	"zskyline/internal/gen"
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

// newUnit creates a window over the unit hypercube.
func newUnit(capacity, dims, bits int) (*Skyline, error) {
	mins := make([]float64, dims)
	maxs := make([]float64, dims)
	for i := range maxs {
		maxs[i] = 1
	}
	return New(capacity, dims, bits, mins, maxs)
}

func TestValidation(t *testing.T) {
	if _, err := newUnit(0, 2, 8); err == nil {
		t.Error("zero capacity accepted")
	}
	w, err := newUnit(4, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Push(point.Point{1}); err == nil {
		t.Error("dim mismatch accepted")
	}
}

func TestLiveTracksWindowContents(t *testing.T) {
	w, err := newUnit(3, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	stream := []point.Point{{0.1, 0.9}, {0.9, 0.1}, {0.5, 0.5}, {0.2, 0.2}}
	for _, p := range stream {
		if _, err := w.Push(p); err != nil {
			t.Fatal(err)
		}
	}
	// Capacity 3: the first push has expired; live = last three, oldest
	// first.
	live := w.Live()
	sameSet(t, live, stream[1:], "live set")
	if !live[0].Equal(stream[1]) || !live[2].Equal(stream[3]) {
		t.Errorf("live order = %v, want oldest-first %v", live, stream[1:])
	}
	// And the live set is exactly what the skyline is computed over.
	sameSet(t, w.Current(), seq.BruteForce(w.Live()), "skyline of live set")
}

// Property: at every step the window skyline equals the brute-force
// skyline of the last capacity points.
func TestSlidingMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 12; trial++ {
		d := 2 + rng.Intn(3)
		capacity := 20 + rng.Intn(80)
		w, err := newUnit(capacity, d, 8)
		if err != nil {
			t.Fatal(err)
		}
		var stream []point.Point
		steps := 300 + rng.Intn(300)
		for s := 0; s < steps; s++ {
			p := make(point.Point, d)
			for k := range p {
				p[k] = float64(rng.Intn(12)) / 12 // ties included
			}
			stream = append(stream, p)
			if _, err := w.Push(p); err != nil {
				t.Fatal(err)
			}
			if s%37 != 0 {
				continue // checking every step is O(n^2); sample steps
			}
			lo := len(stream) - capacity
			if lo < 0 {
				lo = 0
			}
			live := stream[lo:]
			sameSet(t, w.Current(), seq.BruteForce(live), "window")
			if w.Len() != len(live) {
				t.Fatalf("window len %d, want %d", w.Len(), len(live))
			}
		}
	}
}

func TestPushReportsSkylineMembership(t *testing.T) {
	w, _ := newUnit(10, 2, 10)
	in, err := w.Push(point.Point{0.5, 0.5})
	if err != nil || !in {
		t.Fatalf("first point must be skyline: %v %v", in, err)
	}
	in, _ = w.Push(point.Point{0.9, 0.9})
	if in {
		t.Error("dominated arrival reported as skyline")
	}
	in, _ = w.Push(point.Point{0.1, 0.1})
	if !in {
		t.Error("dominating arrival not reported as skyline")
	}
	sameSet(t, w.Current(), []point.Point{{0.1, 0.1}}, "after dominator")
}

func TestExpiryResurrectsDominatedPoints(t *testing.T) {
	// Capacity 3: push a dominator then two dominated points; when the
	// dominator expires, both must resurface.
	w, _ := newUnit(3, 2, 10)
	w.Push(point.Point{0.1, 0.1}) // dominator
	w.Push(point.Point{0.5, 0.6})
	w.Push(point.Point{0.6, 0.5})
	sameSet(t, w.Current(), []point.Point{{0.1, 0.1}}, "before expiry")
	// This push evicts the dominator.
	w.Push(point.Point{0.9, 0.9})
	sameSet(t, w.Current(), []point.Point{{0.5, 0.6}, {0.6, 0.5}}, "after expiry")
}

func TestDuplicateExpiry(t *testing.T) {
	w, _ := newUnit(2, 2, 10)
	w.Push(point.Point{0.2, 0.2})
	w.Push(point.Point{0.2, 0.2})
	sameSet(t, w.Current(), []point.Point{{0.2, 0.2}, {0.2, 0.2}}, "dups")
	// Expire one copy; the other remains.
	w.Push(point.Point{0.8, 0.8})
	sameSet(t, w.Current(), []point.Point{{0.2, 0.2}}, "one dup expired")
}

func TestAntiCorrelatedStream(t *testing.T) {
	ds := gen.Synthetic(gen.AntiCorrelated, 2000, 3, 5)
	w, _ := newUnit(200, 3, 10)
	for _, p := range ds.Points {
		if _, err := w.Push(p); err != nil {
			t.Fatal(err)
		}
	}
	live := ds.Points[len(ds.Points)-200:]
	sameSet(t, w.Current(), seq.BruteForce(live), "anti stream")
	if w.Stats().DominanceTests == 0 {
		t.Error("no work recorded")
	}
}

func BenchmarkWindowPush(b *testing.B) {
	w, _ := newUnit(2000, 4, 12)
	ds := gen.Synthetic(gen.Independent, 10000, 4, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Push(ds.Points[i%ds.Len()])
	}
}
