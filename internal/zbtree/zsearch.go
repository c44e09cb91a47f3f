package zbtree

import (
	"zskyline/internal/metrics"
	"zskyline/internal/point"
	"zskyline/internal/zorder"
)

// Skyline runs Z-search over the tree: a depth-first traversal in
// Z-order that maintains the running skyline in a second ZB-tree.
// Because Z-order is a topological order for dominance (a dominator's
// Z-address is never larger than its dominatee's), each point only
// needs to be tested against already-accepted points; the only
// exception is grid-level ties, which the per-acceptance
// RemoveDominatedBy sweep repairs. The result is the exact skyline of
// the stored float points.
func (t *Tree) Skyline() []point.Point {
	sky := New(t.enc, t.fanout, t.tally)
	t.zsearch(t.root, sky)
	return sky.Points()
}

func (t *Tree) zsearch(n *node, sky *Tree) {
	if n == nil {
		return
	}
	if sky.DominatesAllOfRegion(n.region) {
		return
	}
	if n.isLeaf() {
		for _, e := range n.entries {
			if sky.DominatesPoint(e.G, e.P) {
				continue
			}
			sky.RemoveDominatedBy(e.G, e.P)
			sky.Append(e)
		}
		return
	}
	for _, c := range n.children {
		t.zsearch(c, sky)
	}
}

// SkylineTree is Skyline but returns the result as a fresh balanced
// ZB-tree, which is what the merge phase consumes.
func (t *Tree) SkylineTree() *Tree {
	sky := New(t.enc, t.fanout, t.tally)
	t.zsearch(t.root, sky)
	return Build(t.enc, t.fanout, sky.Entries(), t.tally)
}

// ZSearch is the convenience entry point for the "ZS" algorithm of the
// paper's evaluation: index pts into a ZB-tree and compute the skyline.
// It is a thin adapter over the block-native path (ZSearchBlock), so
// the slice and columnar kernels cannot drift apart.
func ZSearch(enc *zorder.Encoder, fanout int, pts []point.Point, tally *metrics.Tally) []point.Point {
	return ZSearchBlock(enc, fanout, point.BlockOf(enc.Dims(), pts), tally).Points()
}
