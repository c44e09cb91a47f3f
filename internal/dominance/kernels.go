package dominance

import (
	"zskyline/internal/metrics"
	"zskyline/internal/point"
)

// Generic skyline kernels parameterized by a Provider. The Z-order
// kernels need none of them: a zbtree.Store carries the relation and
// its one walk gates each cut on the relation's capabilities. What is
// left here serves the other paths: SkylineBlock is the sort-based
// kernel for non-Pareto relations (Pareto callers route to seq.SBBlock,
// which it matches point-for-point on the classic relation), and
// FilterBlock closes a candidate set under a non-transitive relation —
// a local Z-search against its group, the pipeline's result against the
// full input.

// SkylineBlock computes the exact provider skyline of b, compacting
// survivors into a fresh block.
//
// When the relation implies Pareto, rows are processed in
// point.SumOrder, which is then a topological order for the provider
// (a dominator always comes first), so the window is append-only — the
// seq.SBRows strategy. Otherwise rows are processed in
// input order with window eviction (block-nested loops). For
// non-transitive relations the window is a candidate superset, so a
// final verification pass retests every candidate against the full
// block; elimination by a real row is sound under any irreflexive
// relation, which makes the combined result exact.
func SkylineBlock(prov Provider, b point.Block, tally *metrics.Tally) point.Block {
	n := b.Len()
	if n == 0 {
		return point.Block{Dims: b.Dims}
	}
	caps := prov.Caps()
	var window []int32
	var tests int64
	if caps.ImpliesPareto {
		order := point.SumOrder(b)
		window = order[:0] // survivors overwrite the walked prefix
		for _, ri := range order {
			dominated := false
			for _, wi := range window {
				tests++
				if prov.DominatesRows(b, int(wi), b, int(ri)) {
					dominated = true
					break
				}
			}
			if !dominated {
				window = append(window, ri)
			}
		}
	} else {
		window = make([]int32, 0, 64)
		for i := 0; i < n; i++ {
			dominated := false
			w := window[:0]
			for k, wi := range window {
				tests++
				if prov.DominatesRows(b, int(wi), b, i) {
					dominated = true
					w = append(w, window[k:]...)
					break
				}
				tests++
				if prov.DominatesRows(b, i, b, int(wi)) {
					continue // evict the window row
				}
				w = append(w, wi)
			}
			window = w
			if !dominated {
				window = append(window, int32(i))
			}
		}
	}
	if !caps.Transitive {
		window, tests = verifyRows(prov, b, window, tests)
	}
	tally.AddDominanceTests(tests)
	return compactRows(b, window)
}

// verifyRows retests candidate rows against the full block, dropping
// any candidate dominated by a different row — the second scan of the
// Two-Scan Algorithm, required whenever the relation is not
// transitive.
func verifyRows(prov Provider, b point.Block, cands []int32, tests int64) ([]int32, int64) {
	n := b.Len()
	kept := cands[:0]
	for _, ci := range cands {
		ok := true
		for j := 0; j < n; j++ {
			if j == int(ci) {
				continue
			}
			tests++
			if prov.DominatesRows(b, j, b, int(ci)) {
				ok = false
				break
			}
		}
		if ok {
			kept = append(kept, ci)
		}
	}
	return kept, tests
}

// FilterBlock removes from candidates every row dominated by some row
// of against under prov, compacting survivors. Because eliminations
// cite a real point, the filter is membership-sound under any
// irreflexive relation, transitive or not; and since no row dominates
// itself or a coordinate-equal copy, candidates may be rows of against.
func FilterBlock(prov Provider, candidates, against point.Block, tally *metrics.Tally) point.Block {
	n := candidates.Len()
	if n == 0 {
		return point.Block{Dims: candidates.Dims}
	}
	m := against.Len()
	kept := make([]int32, 0, n)
	var tests int64
	for i := 0; i < n; i++ {
		dominated := false
		for j := 0; j < m; j++ {
			tests++
			if prov.DominatesRows(against, j, candidates, i) {
				dominated = true
				break
			}
		}
		if !dominated {
			kept = append(kept, int32(i))
		}
	}
	tally.AddDominanceTests(tests)
	return compactRows(candidates, kept)
}

// Skyline is the slice adapter of SkylineBlock.
func Skyline(prov Provider, pts []point.Point, tally *metrics.Tally) []point.Point {
	if len(pts) == 0 {
		return nil
	}
	return SkylineBlock(prov, point.BlockOf(len(pts[0]), pts), tally).Points()
}

// BruteForce is the quadratic per-provider oracle: keep p iff no other
// point dominates it under prov. The reference that every executor is
// property-tested against.
func BruteForce(prov Provider, pts []point.Point) []point.Point {
	var out []point.Point
	for i, p := range pts {
		dominated := false
		for j, q := range pts {
			if i == j {
				continue
			}
			if prov.Dominates(q, p) {
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

// compactRows copies the selected rows of b into a fresh block, so
// results never pin the input arena.
func compactRows(b point.Block, rows []int32) point.Block {
	out := point.Block{Dims: b.Dims}
	if len(rows) == 0 {
		return out
	}
	out.Data = make([]float64, 0, len(rows)*b.Dims)
	for _, r := range rows {
		out.Data = append(out.Data, b.Row(int(r))...)
	}
	return out
}
