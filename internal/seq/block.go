package seq

import (
	"zskyline/internal/dominance"
	"zskyline/internal/metrics"
	"zskyline/internal/point"
)

// The sort-filter kernel. It works on a contiguous point.Block by row
// index — no per-point slice headers on the hot path — and answers
// with row positions; callers copy rows out once, with Block.Select.

// SBRows returns the indices of b's skyline rows under prov (nil is
// Pareto), every duplicate included: equal rows never dominate each
// other.
//
// A relation that implies Pareto (Pareto, robust) walks the rows in
// point.SumOrder, a linear extension of it: no row is dominated by a
// later one, so the window only grows, each row is tested against a
// contiguous copy of the survivors so far, and the answer comes out in
// that order. Pareto's test is point.DominatesRows, called directly.
// Any other relation (flex, k-dominance) walks input order and evicts
// the window rows a newcomer dominates (block-nested loops). A
// relation that is not transitive leaves a window in which a row only
// a dropped row dominates survives, so FilterRows closes the window
// against all of b.
func SBRows(prov dominance.Provider, b point.Block, tally *metrics.Tally) []int32 {
	pareto := dominance.IsPareto(prov)
	if pareto {
		prov = dominance.Pareto{}
	}
	caps := prov.Caps()
	var rows []int32
	var tests int64
	if caps.ImpliesPareto {
		rows, tests = sumOrderRows(prov, pareto, b)
	} else {
		rows, tests = evictRows(prov, b)
	}
	tally.AddDominanceTests(tests)
	if !caps.Transitive {
		kept := FilterRows(prov, b.Select(rows), b, tally)
		for i, k := range kept {
			kept[i] = rows[k]
		}
		rows = kept
	}
	return rows
}

// sumOrderRows is SBRows' append-only window over point.SumOrder; it
// returns the survivors and the dominance tests it ran.
func sumOrderRows(prov dominance.Provider, pareto bool, b point.Block) ([]int32, int64) {
	order := point.SumOrder(b)
	kept := order[:0] // survivors overwrite the walked prefix
	window := point.Block{Dims: b.Dims, Data: make([]float64, 0, min(len(order), 256)*b.Dims)}
	var tests int64
	for _, r := range order {
		w := 0 // the first window row that dominates r, or len(kept)
		if pareto {
			for w < len(kept) && !point.DominatesRows(window, w, b, int(r)) {
				w++
			}
		} else {
			for w < len(kept) && !prov.DominatesRows(window, w, b, int(r)) {
				w++
			}
		}
		if w < len(kept) {
			tests += int64(w + 1)
			continue
		}
		tests += int64(w)
		kept = append(kept, r)
		window.Data = append(window.Data, b.Row(int(r))...)
	}
	return kept, tests
}

// evictRows is SBRows' block-nested-loop window in input order: a row
// that a window row dominates is dropped, and a row that survives
// evicts the window rows it dominates. It returns the window and the
// dominance tests it ran.
func evictRows(prov dominance.Provider, b point.Block) ([]int32, int64) {
	window := make([]int32, 0, 64)
	var tests int64
	for i := 0; i < b.Len(); i++ {
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
	return window, tests
}

// FilterRows returns, ascending, the rows of cand that no row of
// against dominates under prov, which must not be nil. Every
// elimination cites a real row, so the filter is sound under any
// irreflexive relation, transitive or not; and since no row dominates
// itself or a coordinate-equal copy, cand may hold rows of against. It
// is the one pass that closes a candidate set under a non-transitive
// relation: SBRows' window against its input, a local Z-search against
// its group, and the pipeline's answer against the whole input.
func FilterRows(prov dominance.Provider, cand, against point.Block, tally *metrics.Tally) []int32 {
	m := against.Len()
	kept := make([]int32, 0, cand.Len())
	var tests int64
	for i := 0; i < cand.Len(); i++ {
		j := 0 // the first row of against that dominates row i, or m
		for j < m && !prov.DominatesRows(against, j, cand, i) {
			j++
		}
		if j < m {
			tests += int64(j + 1)
			continue
		}
		tests += int64(m)
		kept = append(kept, int32(i))
	}
	tally.AddDominanceTests(tests)
	return kept
}

// SBBlock is SBRows under Pareto with the survivors copied into a
// fresh block.
func SBBlock(b point.Block, tally *metrics.Tally) point.Block {
	return b.Select(SBRows(nil, b, tally))
}
