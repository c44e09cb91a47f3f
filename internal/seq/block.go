package seq

import (
	"zskyline/internal/metrics"
	"zskyline/internal/point"
)

// Block-native variants of the centralized kernels. They operate on
// contiguous point.Blocks via row-index permutations — no per-point
// slice headers on the hot path — and compact survivors into a fresh
// block. Each is semantically identical to its slice counterpart
// (same order, same dominance tests), which the property tests in
// block_test.go pin down against seq.BruteForce.

// SBRows is SB with row provenance: the indices of b's skyline rows,
// in point.SumOrder. No row is dominated by a later one in that order,
// so the window only grows, and each row is tested against a
// contiguous copy of the survivors so far. Equal rows never dominate
// each other, so every duplicate survives.
func SBRows(b point.Block, tally *metrics.Tally) []int32 {
	order := point.SumOrder(b)
	kept := order[:0] // survivors overwrite the walked prefix
	window := point.Block{Dims: b.Dims, Data: make([]float64, 0, min(len(order), 256)*b.Dims)}
	var tests int64
	for _, r := range order {
		dominated := false
		for w := range kept {
			tests++
			if point.DominatesRows(window, w, b, int(r)) {
				dominated = true
				break
			}
		}
		if !dominated {
			kept = append(kept, r)
			window.Data = append(window.Data, b.Row(int(r))...)
		}
	}
	tally.AddDominanceTests(tests)
	return kept
}

// SBBlock is SBRows with the survivors compacted into a fresh block.
func SBBlock(b point.Block, tally *metrics.Tally) point.Block {
	return compactRows(b, SBRows(b, tally))
}

// BNLBlock is BNL over a block: the window holds row indices and is
// compacted in place on eviction.
func BNLBlock(b point.Block, tally *metrics.Tally) point.Block {
	n := b.Len()
	if n == 0 {
		return point.Block{Dims: b.Dims}
	}
	window := make([]int32, 0, 64)
	var tests int64
	for i := 0; i < n; i++ {
		p := b.Row(i)
		dominated := false
		w := window[:0]
		for k, wi := range window {
			tests++
			rel := point.Compare(b.Row(int(wi)), p)
			if rel == point.PDominatesQ { // window row dominates p
				dominated = true
				w = append(w, window[k:]...)
				break
			}
			if rel == point.QDominatesP { // p dominates window row: evict
				continue
			}
			w = append(w, wi)
		}
		window = w
		if !dominated {
			window = append(window, int32(i))
		}
	}
	tally.AddDominanceTests(tests)
	return compactRows(b, window)
}

// FilterBlock removes from candidates every row dominated by some row
// of against (exact float tests), compacting survivors.
func FilterBlock(candidates, against point.Block, tally *metrics.Tally) point.Block {
	n := candidates.Len()
	if n == 0 {
		return point.Block{Dims: candidates.Dims}
	}
	kept := make([]int32, 0, n)
	var tests int64
	m := against.Len()
	for i := 0; i < n; i++ {
		p := candidates.Row(i)
		dominated := false
		for j := 0; j < m; j++ {
			tests++
			if point.Dominates(against.Row(j), p) {
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
