// Package seq implements the centralized (single-worker) skyline
// algorithms the paper uses as local building blocks and baselines:
//
//   - BNL: Börzsönyi et al.'s block-nested-loops over an unsorted
//     input.
//   - SB ("sort-based"): walk the rows in point.SumOrder, then a
//     single filtering pass — the paper's SB local algorithm (§6.1).
//     That order is a linear extension of dominance, so the window is
//     append-only. SBRows is the one kernel; SB and SBBlock wrap it.
//   - BruteForce: the quadratic oracle used by tests.
//
// The paper's third algorithm, Z-search (ZS), lives in package zbtree
// because it is built on the ZB-tree index.
package seq

import (
	"zskyline/internal/metrics"
	"zskyline/internal/point"
)

// BruteForce computes the skyline by comparing all pairs. It is the
// O(n^2 d) oracle the rest of the test suite is validated against.
// Duplicate points (identical coordinates) are all retained, since
// equal points do not dominate one another.
func BruteForce(pts []point.Point) []point.Point {
	var out []point.Point
	for i, p := range pts {
		dominated := false
		for j, q := range pts {
			if i == j {
				continue
			}
			if point.Dominates(q, p) {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, p)
		}
	}
	return out
}

// BNL is the classic block-nested-loops skyline: maintain a window of
// incomparable points; each input point is compared against the
// window, evicting dominated window entries and being discarded if it
// is itself dominated. tally may be nil.
func BNL(pts []point.Point, tally *metrics.Tally) []point.Point {
	window := make([]point.Point, 0, 64)
	var tests int64
	for _, p := range pts {
		dominated := false
		w := window[:0]
		for i, q := range window {
			tests++
			rel := point.Compare(q, p)
			if rel == point.PDominatesQ { // q dominates p
				dominated = true
				w = append(w, window[i:]...)
				break
			}
			if rel == point.QDominatesP { // p dominates q: evict q
				continue
			}
			w = append(w, q)
		}
		window = w
		if !dominated {
			window = append(window, p)
		}
	}
	tally.AddDominanceTests(tests)
	return window
}

// SB is the paper's "sort data first, then Block-Nest-Loop" local
// algorithm over a slice: SBRows on a block copy of pts, answered with
// the caller's own points (in point.SumOrder, duplicates included).
// Every point must have the first point's dimensionality.
func SB(pts []point.Point, tally *metrics.Tally) []point.Point {
	if len(pts) == 0 {
		return nil
	}
	rows := SBRows(point.BlockOf(len(pts[0]), pts), tally)
	out := make([]point.Point, len(rows))
	for i, r := range rows {
		out[i] = pts[r]
	}
	return out
}

// Filter removes from candidates every point dominated by some point
// in against (exact float tests). It is the primitive mappers use to
// apply the sample-skyline filter when no index is available.
func Filter(candidates, against []point.Point, tally *metrics.Tally) []point.Point {
	var out []point.Point
	var tests int64
	for _, p := range candidates {
		dominated := false
		for _, q := range against {
			tests++
			if point.Dominates(q, p) {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, p)
		}
	}
	tally.AddDominanceTests(tests)
	return out
}
