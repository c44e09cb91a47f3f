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
// soon as it is final, for first-results-fast consumers: the walk of
// SkylineRows, which counts alike. Emission waits until the traversal's
// Z-address moves strictly past the row's own: a row can only ever be
// evicted by an equal-address tie. The walk stops early when ctx is
// done or emit returns false. It adds its tests to the tree's tally
// once, when it returns.
func (t *BlockTree) SkylineProgressive(ctx context.Context, emit func(row int32) bool) {
	var c metrics.Count
	em := &emitter{ctx: ctx, emit: emit}
	if t.zsearch(&c, t.root, NewBlockTree(t.st, t.fanout, nil), em) {
		em.flush()
	}
	t.tally.Add(c)
}

// emitter is Z-search's hook for a progressive walk: pending holds the
// accepted rows of the walk's current address, which only a row of
// that address can still evict. After advance, pending is non-empty
// exactly when the row ties the last accepted one, the walk's sweep
// condition.
type emitter struct {
	ctx     context.Context
	emit    func(row int32) bool
	pending []int32
}

// advance emits every pending row once the walk reaches row at a larger
// address, and reports whether emit took them all.
func (em *emitter) advance(zc zorder.ZCol, row int32) bool {
	return len(em.pending) == 0 || zc.Compare(int(em.pending[0]), int(row)) >= 0 || em.flush()
}

// flush emits every pending row, and reports whether emit took them all.
func (em *emitter) flush() bool {
	for _, e := range em.pending {
		if !em.emit(e) {
			return false
		}
	}
	em.pending = em.pending[:0]
	return true
}

// evict drops the pending rows that row dominates: the sweep just took
// them off the skyline.
func (em *emitter) evict(blk point.Block, row int32) {
	kept := em.pending[:0]
	for _, e := range em.pending {
		if !point.DominatesRows(blk, int(row), blk, int(e)) {
			kept = append(kept, e)
		}
	}
	em.pending = kept
}
