package zbtree

import (
	"context"

	"zskyline/internal/metrics"
	"zskyline/internal/point"
	"zskyline/internal/zorder"
)

// The index queries: read-only operations that count into their own
// metrics.Count and add it to the tree's tally once, when they return,
// so any number of them may run on one tree at once.

// CountDominatedBy returns how many stored rows p strictly dominates; g
// must be p's grid coordinates under the store's encoder. Whole
// subtrees are counted at once when their region is certifiably
// dominated at the grid level.
func (t *BlockTree) CountDominatedBy(g []uint32, p point.Point) int {
	if t.root < 0 {
		return 0
	}
	var c metrics.Count
	k := t.countDominated(&c, t.root, g, p)
	t.tally.Add(c)
	return k
}

func (t *BlockTree) countDominated(c *metrics.Count, n int32, g []uint32, p point.Point) int {
	c.RegionTests++
	r := t.region(n)
	if zorder.GridSomeGreater(g, r.MaxG) {
		return 0
	}
	nd := &t.nodes[n]
	if zorder.PointGridDominatesRegion(g, r) {
		return int(nd.count)
	}
	k := 0
	if nd.isLeaf() {
		c.DominanceTests += int64(len(nd.rows))
		for _, e := range nd.rows {
			if point.Dominates(p, t.st.Row(e)) {
				k++
			}
		}
		return k
	}
	for _, kid := range nd.kids {
		k += t.countDominated(c, kid, g, p)
	}
	return k
}

// DominatorsOf returns the stored rows that strictly dominate p (grid
// coordinates g), in Z-order — the "why is p not in the skyline"
// explanation query. Subtrees whose region cannot hold a dominator are
// pruned.
func (t *BlockTree) DominatorsOf(g []uint32, p point.Point) []int32 {
	if t.root < 0 {
		return nil
	}
	var c metrics.Count
	out := t.dominatorsOf(&c, t.root, g, p, nil)
	t.tally.Add(c)
	return out
}

func (t *BlockTree) dominatorsOf(c *metrics.Count, n int32, g []uint32, p point.Point, out []int32) []int32 {
	c.RegionTests++
	if zorder.RegionCannotDominatePointGrid(t.region(n), g) {
		return out
	}
	nd := &t.nodes[n]
	if nd.isLeaf() {
		c.DominanceTests += int64(len(nd.rows))
		for _, e := range nd.rows {
			if point.Dominates(t.st.Row(e), p) {
				out = append(out, e)
			}
		}
		return out
	}
	for _, kid := range nd.kids {
		out = t.dominatorsOf(c, kid, g, p, out)
	}
	return out
}

// RangeRows returns the stored rows p with lo <= p <= hi componentwise,
// in Z-order, pruning subtrees whose region lies outside the box's grid
// shadow in some dimension.
func (t *BlockTree) RangeRows(lo, hi point.Point) []int32 {
	if t.root < 0 {
		return nil
	}
	var c metrics.Count
	out := t.rangeRows(&c, t.root, t.st.enc.Grid(lo), t.st.enc.Grid(hi), lo, hi, nil)
	t.tally.Add(c)
	return out
}

func (t *BlockTree) rangeRows(c *metrics.Count, n int32, gLo, gHi []uint32, lo, hi point.Point, out []int32) []int32 {
	c.RegionTests++
	r := t.region(n)
	for k := range gLo {
		if r.MinG[k] > gHi[k] || r.MaxG[k] < gLo[k] {
			return out
		}
	}
	nd := &t.nodes[n]
	if nd.isLeaf() {
	rows:
		for _, e := range nd.rows {
			for k, v := range t.st.Row(e) {
				if v < lo[k] || v > hi[k] {
					continue rows
				}
			}
			out = append(out, e)
		}
		return out
	}
	for _, kid := range nd.kids {
		out = t.rangeRows(c, kid, gLo, gHi, lo, hi, out)
	}
	return out
}

// SkylineProgressive is Z-search that hands each skyline row to emit as
// soon as it is final, for first-results-fast consumers. Emission waits
// until the traversal's Z-address moves strictly past the row's own: a
// row can only ever be evicted by an equal-address tie. The walk stops
// early when ctx is done or emit returns false. It adds its tests to
// the tree's tally once, when it returns.
func (t *BlockTree) SkylineProgressive(ctx context.Context, emit func(row int32) bool) {
	var c metrics.Count
	defer func() { t.tally.Add(c) }()
	sky := NewBlockTree(t.st, t.fanout, nil)
	var pending []int32 // accepted rows sharing the current address
	flush := func() bool {
		for _, e := range pending {
			if !emit(e) {
				return false
			}
		}
		pending = pending[:0]
		return true
	}
	if t.progressive(ctx, &c, t.root, sky, &pending, flush) {
		flush()
	}
}

func (t *BlockTree) progressive(ctx context.Context, c *metrics.Count, n int32, sky *BlockTree, pending *[]int32, flush func() bool) bool {
	if n < 0 {
		return true
	}
	if ctx.Err() != nil {
		return false
	}
	if sky.DominatesAllOfRegion(c, t.region(n)) {
		return true
	}
	nd := &t.nodes[n]
	if !nd.isLeaf() {
		for _, kid := range nd.kids {
			if !t.progressive(ctx, c, kid, sky, pending, flush) {
				return false
			}
		}
		return true
	}
	blk := t.st.blk
	for _, e := range nd.rows {
		// The traversal's address advanced: everything pending is final.
		if len(*pending) > 0 && t.st.zc.Compare(int((*pending)[0]), int(e)) < 0 && !flush() {
			return false
		}
		if sky.DominatesRow(c, e) {
			continue
		}
		// Only an accepted row of e's own address can be dominated by e,
		// and those are exactly the pending ones (see SkylineRows).
		if (len(*pending) > 0 || t.st.noNeg) && sky.RemoveDominatedBy(c, e) > 0 {
			// Ties: drop evicted rows from the pending buffer too.
			kept := (*pending)[:0]
			for _, pe := range *pending {
				if !point.DominatesRows(blk, int(e), blk, int(pe)) {
					kept = append(kept, pe)
				}
			}
			*pending = kept
		}
		sky.Append(e)
		*pending = append(*pending, e)
	}
	return true
}
