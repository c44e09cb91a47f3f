// Package seq implements the centralized (single-worker) skyline
// algorithms: the paper's SB local building block and the test oracle.
//
//   - SB ("sort-based"): sort the rows, then a single filtering pass —
//     the paper's SB local algorithm (§6.1). SBRows is the one
//     sort-filter kernel, under every dominance relation; SB and
//     SBBlock wrap it for Pareto, and FilterRows closes a candidate
//     set under a non-transitive relation.
//   - BruteForce: the quadratic Pareto oracle used by tests.
//
// The paper's other local algorithm, Z-search (ZS), lives in package
// zbtree because it is built on the ZB-tree index.
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

// SB is the paper's "sort data first, then Block-Nest-Loop" local
// algorithm over a slice: SBRows on a block copy of pts, answered with
// the caller's own points (in point.SumOrder, duplicates included).
// Every point must have the first point's dimensionality.
func SB(pts []point.Point, tally *metrics.Tally) []point.Point {
	if len(pts) == 0 {
		return nil
	}
	rows := SBRows(nil, point.BlockOf(len(pts[0]), pts), tally)
	out := make([]point.Point, len(rows))
	for i, r := range rows {
		out[i] = pts[r]
	}
	return out
}
