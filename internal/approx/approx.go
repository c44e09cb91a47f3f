// Package approx shrinks unwieldy skylines two ways:
//
//   - Epsilon builds an ε-skyline (Koltun & Papadimitriou): a subset
//     that ε-covers the whole dataset — for every point q some kept
//     point p satisfies p[i] <= q[i] + ε in every dimension. Larger ε,
//     smaller set.
//   - Representative picks k skyline points by greedy k-center under
//     the L∞ metric (a 2-approximation of the optimal cover radius),
//     the standard "show me k diverse best options" operator.
//
// Both address the paper's §1 observation that high-dimensional
// skylines are too large to present raw.
package approx

import (
	"fmt"
	"math"

	"zskyline/internal/point"
	"zskyline/internal/seq"
)

// CoversEps reports whether p ε-covers q: p[i] <= q[i] + eps in every
// dimension.
func CoversEps(p, q point.Point, eps float64) bool {
	if len(p) != len(q) {
		return false
	}
	for i := range p {
		if p[i] > q[i]+eps {
			return false
		}
	}
	return true
}

// Epsilon returns an ε-skyline of pts: a subset of the exact skyline
// that ε-covers every input point. eps = 0 degenerates to the exact
// skyline (duplicates collapse: equal points cover each other).
func Epsilon(pts []point.Point, eps float64) ([]point.Point, error) {
	if eps < 0 {
		return nil, fmt.Errorf("approx: epsilon must be non-negative, got %v", eps)
	}
	if len(pts) == 0 {
		return nil, nil
	}
	// SB answers in point.SumOrder, ascending coordinate sum, so
	// aggressive coverers come first; greedily keep points not yet
	// covered.
	sky := seq.SB(pts, nil)
	var kept []point.Point
	for _, q := range sky {
		covered := false
		for _, p := range kept {
			if CoversEps(p, q, eps) {
				covered = true
				break
			}
		}
		if !covered {
			kept = append(kept, q)
		}
	}
	return kept, nil
}

// linf is the L∞ distance between points.
func linf(a, b point.Point) float64 {
	m := 0.0
	for i := range a {
		d := math.Abs(a[i] - b[i])
		if d > m {
			m = d
		}
	}
	return m
}

// Representative picks k diverse skyline points by greedy k-center:
// start from the minimum-coordinate-sum skyline point (the "balanced
// best"), then repeatedly add the skyline point farthest from the
// current picks. Returns the whole skyline when k exceeds its size.
func Representative(pts []point.Point, k int) ([]point.Point, error) {
	if k < 1 {
		return nil, fmt.Errorf("approx: k must be positive, got %d", k)
	}
	if len(pts) == 0 {
		return nil, nil
	}
	sky := seq.SB(pts, nil)
	if k >= len(sky) {
		return sky, nil
	}
	// Deterministic seed: the min-sum point, ties by lexicographic
	// order — the first of SB's answer, which is in point.SumOrder.
	seed := 0
	chosen := []point.Point{sky[seed]}
	dist := make([]float64, len(sky))
	for i := range sky {
		dist[i] = linf(sky[i], sky[seed])
	}
	for len(chosen) < k {
		far := 0
		for i := 1; i < len(sky); i++ {
			if dist[i] > dist[far] || (dist[i] == dist[far] && point.Less(sky[i], sky[far])) {
				far = i
			}
		}
		chosen = append(chosen, sky[far])
		for i := range sky {
			if d := linf(sky[i], sky[far]); d < dist[i] {
				dist[i] = d
			}
		}
	}
	return chosen, nil
}

// CoverRadius returns the max over skyline points of the distance to
// the nearest representative — the quantity greedy k-center bounds.
func CoverRadius(sky, reps []point.Point) float64 {
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
