package seq

import (
	"zskyline/internal/metrics"
	"zskyline/internal/point"
)

// The block-native SB kernel. It works on a contiguous point.Block via
// row-index permutations — no per-point slice headers on the hot path —
// and compacts survivors into a fresh block.

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
