package approx

import (
	"math"
	"math/rand"
	"testing"

	"zskyline/internal/gen"
	"zskyline/internal/point"
	"zskyline/internal/seq"
)

func TestCoversEps(t *testing.T) {
	if !CoversEps(point.Point{1, 1}, point.Point{1.05, 0.95}, 0.1) {
		t.Error("should cover within eps")
	}
	if CoversEps(point.Point{1, 1}, point.Point{1.05, 0.85}, 0.1) {
		t.Error("dim 2 exceeds eps")
	}
	if CoversEps(point.Point{1}, point.Point{1, 2}, 1) {
		t.Error("dim mismatch covered")
	}
}

func TestEpsilonValidation(t *testing.T) {
	if _, err := Epsilon(nil, -0.1); err == nil {
		t.Error("negative eps accepted")
	}
	got, err := Epsilon(nil, 0.1)
	if err != nil || got != nil {
		t.Errorf("empty input: %v %v", got, err)
	}
}

// The defining property: every input point is eps-covered by some kept
// point, and kept points are skyline points.
func TestEpsilonCoversEverything(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		d := 2 + rng.Intn(3)
		ds := gen.Synthetic(gen.Distribution(rng.Intn(3)), 500, d, rng.Int63())
		eps := []float64{0.05, 0.1, 0.3}[rng.Intn(3)]
		kept, err := Epsilon(ds.Points, eps)
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range ds.Points {
			covered := false
			for _, p := range kept {
				if CoversEps(p, q, eps) {
					covered = true
					break
				}
			}
			if !covered {
				t.Fatalf("eps=%v: point %v uncovered", eps, q)
			}
		}
		sky := seq.BruteForce(ds.Points)
		inSky := map[string]bool{}
		for _, p := range sky {
			inSky[p.String()] = true
		}
		for _, p := range kept {
			if !inSky[p.String()] {
				t.Fatalf("kept point %v not a skyline point", p)
			}
		}
	}
}

func TestEpsilonShrinksWithEps(t *testing.T) {
	ds := gen.Synthetic(gen.AntiCorrelated, 3000, 4, 7)
	sizes := []int{}
	for _, eps := range []float64{0, 0.05, 0.15, 0.4} {
		kept, err := Epsilon(ds.Points, eps)
		if err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, len(kept))
	}
	for i := 1; i < len(sizes); i++ {
		if sizes[i] > sizes[i-1] {
			t.Fatalf("eps-skyline grew: %v", sizes)
		}
	}
	if sizes[len(sizes)-1] >= sizes[0]/4 {
		t.Errorf("large eps barely shrank the skyline: %v", sizes)
	}
}

func TestRepresentative(t *testing.T) {
	if _, err := Representative(nil, 0); err == nil {
		t.Error("k=0 accepted")
	}
	ds := gen.Synthetic(gen.AntiCorrelated, 2000, 3, 9)
	sky := seq.SB(ds.Points, nil)
	for _, k := range []int{1, 5, 20} {
		reps, err := Representative(ds.Points, k)
		if err != nil {
			t.Fatal(err)
		}
		if len(reps) != k {
			t.Fatalf("k=%d: got %d reps", k, len(reps))
		}
		inSky := map[string]bool{}
		for _, p := range sky {
			inSky[p.String()] = true
		}
		for _, p := range reps {
			if !inSky[p.String()] {
				t.Fatalf("representative %v not a skyline point", p)
			}
		}
	}
	// k beyond skyline size returns the whole skyline.
	reps, _ := Representative(ds.Points, len(sky)+10)
	if len(reps) != len(sky) {
		t.Errorf("overlarge k: %d reps vs %d skyline", len(reps), len(sky))
	}
}

// Greedy k-center: the cover radius must shrink monotonically with k.
func TestRepresentativeRadiusShrinks(t *testing.T) {
	ds := gen.Synthetic(gen.AntiCorrelated, 3000, 3, 11)
	sky := seq.SB(ds.Points, nil)
	prev := -1.0
	for _, k := range []int{1, 3, 10, 30} {
		reps, err := Representative(ds.Points, k)
		if err != nil {
			t.Fatal(err)
		}
		r := coverRadius(sky, reps)
		if prev >= 0 && r > prev {
			t.Fatalf("radius grew with k: %v -> %v", prev, r)
		}
		prev = r
	}
}

func TestRepresentativeDeterministic(t *testing.T) {
	ds := gen.Synthetic(gen.Independent, 1000, 3, 13)
	a, _ := Representative(ds.Points, 7)
	b, _ := Representative(ds.Points, 7)
	for i := range a {
		if !a[i].Equal(b[i]) {
			t.Fatal("representatives not deterministic")
		}
	}
}

// coverRadius returns the max over skyline points of the distance to
// the nearest representative — the quantity greedy k-center bounds.
func coverRadius(sky, reps []point.Point) float64 {
	worst := 0.0
	for _, q := range sky {
		best := math.Inf(1)
		for _, p := range reps {
			if d := linf(p, q); d < best {
				best = d
			}
		}
		if best > worst {
			worst = best
		}
	}
	return worst
}
