package sample

import (
	"math"
	"testing"

	"zskyline/internal/point"
)

func seqPoints(n int) []point.Point {
	pts := make([]point.Point, n)
	for i := range pts {
		pts[i] = point.Point{float64(i)}
	}
	return pts
}

func TestReservoirSize(t *testing.T) {
	pts := seqPoints(1000)
	for _, k := range []int{1, 10, 500, 999} {
		if got := Reservoir(pts, k, 1); len(got) != k {
			t.Errorf("k=%d: got %d", k, len(got))
		}
	}
	if got := Reservoir(pts, 1000, 1); len(got) != 1000 {
		t.Errorf("k=n: got %d", len(got))
	}
	if got := Reservoir(pts, 2000, 1); len(got) != 1000 {
		t.Errorf("k>n: got %d", len(got))
	}
	if got := Reservoir(pts, 0, 1); got != nil {
		t.Errorf("k=0: got %v", got)
	}
	if got := Reservoir(nil, 5, 1); len(got) != 0 {
		t.Errorf("empty input: got %v", got)
	}
}

func TestReservoirDeterministic(t *testing.T) {
	pts := seqPoints(500)
	a := Reservoir(pts, 50, 42)
	b := Reservoir(pts, 50, 42)
	for i := range a {
		if !a[i].Equal(b[i]) {
			t.Fatal("same seed gave different samples")
		}
	}
}

func TestReservoirNoDuplicateIndices(t *testing.T) {
	pts := seqPoints(200)
	got := Reservoir(pts, 80, 7)
	seen := map[float64]bool{}
	for _, p := range got {
		if seen[p[0]] {
			t.Fatalf("point %v sampled twice", p)
		}
		seen[p[0]] = true
	}
}

// Property: every element has ~k/n inclusion probability.
func TestReservoirUniformity(t *testing.T) {
	const n, k, trials = 100, 20, 3000
	pts := seqPoints(n)
	counts := make([]int, n)
	for trial := 0; trial < trials; trial++ {
		for _, p := range Reservoir(pts, k, int64(trial)) {
			counts[int(p[0])]++
		}
	}
	want := float64(trials) * float64(k) / float64(n)
	for i, c := range counts {
		// 5-sigma band for a binomial(trials, k/n).
		sigma := math.Sqrt(float64(trials) * (float64(k) / n) * (1 - float64(k)/n))
		if math.Abs(float64(c)-want) > 5*sigma {
			t.Fatalf("element %d sampled %d times, want ~%.0f (±%.0f)", i, c, want, 5*sigma)
		}
	}
}

func TestRatio(t *testing.T) {
	pts := seqPoints(1000)
	got, err := Ratio(pts, 0.01, 1)
	if err != nil || len(got) != 10 {
		t.Errorf("ratio 1%%: %d, err %v", len(got), err)
	}
	got, err = Ratio(pts, 0.0001, 1)
	if err != nil || len(got) != 1 {
		t.Errorf("tiny ratio should floor at 1: %d, err %v", len(got), err)
	}
	if _, err := Ratio(pts, 0, 1); err == nil {
		t.Error("ratio 0 should error")
	}
	if _, err := Ratio(pts, 1.5, 1); err == nil {
		t.Error("ratio > 1 should error")
	}
	got, err = Ratio(nil, 0.5, 1)
	if err != nil || got != nil {
		t.Errorf("empty input: %v, %v", got, err)
	}
}

func TestStreamValidation(t *testing.T) {
	if _, err := NewStream(0, 1); err == nil {
		t.Error("zero capacity accepted")
	}
}

func TestStreamFillsThenSamples(t *testing.T) {
	s, err := NewStream(10, 1)
	if err != nil {
		t.Fatal(err)
	}
	pts := seqPoints(5)
	s.AddBlock(point.BlockOf(1, pts))
	if s.seen != 5 || len(s.Sample()) != 5 {
		t.Errorf("partial fill: seen=%d sample=%d", s.seen, len(s.Sample()))
	}
	s.AddBlock(point.BlockOf(1, seqPoints(100)))
	if len(s.Sample()) != 10 {
		t.Errorf("overfull reservoir holds %d", len(s.Sample()))
	}
	// Sample returns copies of the slice header list, not the live
	// reservoir.
	got := s.Sample()
	got[0] = point.Point{999}
	if s.Sample()[0][0] == 999 {
		t.Error("Sample exposes internal storage")
	}
}

// Property: streaming reservoir is uniform, like the batch one.
func TestStreamUniformity(t *testing.T) {
	const n, k, trials = 60, 12, 3000
	counts := make([]int, n)
	for trial := 0; trial < trials; trial++ {
		s, _ := NewStream(k, int64(trial))
		s.AddBlock(point.BlockOf(1, seqPoints(n)))
		for _, p := range s.Sample() {
			counts[int(p[0])]++
		}
	}
	want := float64(trials) * float64(k) / float64(n)
	sigma := math.Sqrt(float64(trials) * (float64(k) / n) * (1 - float64(k)/n))
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*sigma {
			t.Fatalf("element %d sampled %d times, want ~%.0f", i, c, want)
		}
	}
}

// A stream fed in any batches draws what Reservoir draws from the whole
// input under the same seed, so a file and its in-memory copy learn
// from the same sample.
func TestStreamDrawsLikeReservoir(t *testing.T) {
	pts := seqPoints(1000)
	for _, k := range []int{1, 7, 100, 1000, 2000} {
		want := Reservoir(pts, k, 42)
		s, err := NewStream(k, 42)
		if err != nil {
			t.Fatal(err)
		}
		b := point.BlockOf(1, pts)
		for lo := 0; lo < b.Len(); lo += 333 {
			s.AddBlock(b.Slice(lo, min(lo+333, b.Len())))
		}
		got := s.Sample()
		if len(got) != len(want) {
			t.Fatalf("k=%d: stream drew %d points, reservoir %d", k, len(got), len(want))
		}
		for i := range got {
			if !got[i].Equal(want[i]) {
				t.Fatalf("k=%d: draw %d is %v, reservoir drew %v", k, i, got[i], want[i])
			}
		}
	}
}
