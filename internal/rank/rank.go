// Package rank orders skyline results for presentation. The paper
// (§1) notes that when skylines are huge, "users could rank the
// computed skyline sets based on user defined functions such as in
// [15]" and leaves ranking out of scope; this package supplies the two
// standard mechanisms downstream users expect:
//
//   - TopKByScore: rank by any user scoring function (monotone scorers
//     keep the guarantee that the best point overall is a skyline
//     point, so ranking the skyline loses nothing);
//   - TopKByDominance: rank skyline points by how many dataset points
//     each dominates — a preference-free measure of "how much of the
//     data this point beats" — computed with ZB-tree pruning rather
//     than all-pairs tests.
package rank

import (
	"fmt"
	"sort"

	"zskyline/internal/metrics"
	"zskyline/internal/point"
	"zskyline/internal/zbtree"
	"zskyline/internal/zorder"
)

// Scored pairs a point with its score for ranked output.
type Scored struct {
	P     point.Point
	Score float64
}

// TopKByScore returns the k lowest-scoring points (smaller is better,
// consistent with the library's convention). Ties are broken by
// lexicographic point order so results are deterministic. k <= 0
// returns nil; k beyond len(pts) returns everything ranked.
func TopKByScore(pts []point.Point, k int, score func(point.Point) float64) []Scored {
	if k <= 0 || len(pts) == 0 {
		return nil
	}
	scored := make([]Scored, len(pts))
	for i, p := range pts {
		scored[i] = Scored{P: p, Score: score(p)}
	}
	sort.Slice(scored, func(i, j int) bool {
		if scored[i].Score != scored[j].Score {
			return scored[i].Score < scored[j].Score
		}
		return point.Less(scored[i].P, scored[j].P)
	})
	if k > len(scored) {
		k = len(scored)
	}
	return scored[:k]
}

// WeightedSum builds a linear scoring function over normalized weights
// (weights need not sum to one; negative weights are rejected because
// they break monotonicity, and with it the skyline-contains-the-best
// guarantee).
func WeightedSum(weights []float64) (func(point.Point) float64, error) {
	for i, w := range weights {
		if w < 0 {
			return nil, fmt.Errorf("rank: negative weight %v at %d", w, i)
		}
	}
	ws := append([]float64(nil), weights...)
	return func(p point.Point) float64 {
		s := 0.0
		for i, v := range p {
			if i < len(ws) {
				s += ws[i] * v
			}
		}
		return s
	}, nil
}

// TopKByDominance ranks the points of sky by the number of points of
// data each strictly dominates, descending (the most "influential"
// skyline points first). The count uses a ZB-tree over data with
// conservative region pruning: a whole subtree counts at once when its
// region is certifiably dominated. Cost is O(|sky| * tree), far below
// the all-pairs |sky|*|data| for clustered data.
func TopKByDominance(sky, data []point.Point, enc *zorder.Encoder, k int, tally *metrics.Tally) []Scored {
	if k <= 0 || len(sky) == 0 {
		return nil
	}
	tree := zbtree.BuildStore(zbtree.NewStore(enc, point.BlockOf(enc.Dims(), data)), 0, tally)
	scored := make([]Scored, len(sky))
	g := make([]uint32, enc.Dims())
	for i, p := range sky {
		g = enc.GridInto(g, p)
		scored[i] = Scored{P: p, Score: float64(tree.CountDominatedBy(g, p))}
	}
	sort.Slice(scored, func(i, j int) bool {
		if scored[i].Score != scored[j].Score {
			return scored[i].Score > scored[j].Score
		}
		return point.Less(scored[i].P, scored[j].P)
	})
	if k > len(scored) {
		k = len(scored)
	}
	return scored[:k]
}
