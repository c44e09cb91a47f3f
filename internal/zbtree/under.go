package zbtree

import (
	"zskyline/internal/dominance"
	"zskyline/internal/metrics"
	"zskyline/internal/point"
	"zskyline/internal/zorder"
)

// Provider-aware Z-search. The grid-level cuts of the Pareto kernels are
// Pareto facts, so each is gated on the capability that transfers it to
// the provider's relation (see package dominance):
//
//   - positive cuts ("everything in this region is grid-dominated, so
//     skip/evict it wholesale") eliminate under the provider only when
//     Pareto dominance implies provider dominance (Caps.ParetoImplies);
//   - negative cuts ("nothing in this region can grid-dominate p, so
//     don't descend") skip provider dominators only when provider
//     dominance implies Pareto dominance (Caps.ImpliesPareto).
//
// When a capability is absent the walk degrades to exhaustive region
// scans — every row is tested one by one — which is always sound. For
// non-transitive relations the traversal result is a candidate
// superset; ZSearchBlockUnder closes it with a verification pass
// against every input row. The Pareto walks of blocktree.go stay free
// of these branches.

// ZSearchBlockUnder computes the exact provider skyline of b's rows and
// returns it compacted into a fresh block, in Z-order. The classic
// relation routes to the block-native ZSearchBlock.
func ZSearchBlockUnder(prov dominance.Provider, enc *zorder.Encoder, fanout int, b point.Block, tally *metrics.Tally) point.Block {
	if dominance.IsPareto(prov) {
		return ZSearchBlock(enc, fanout, b, tally)
	}
	if b.Len() == 0 {
		return point.Block{Dims: b.Dims}
	}
	st := NewStore(enc, b)
	t := BuildStore(st, fanout, tally)
	sky := NewBlockTree(st, t.fanout, tally)
	caps := prov.Caps()
	t.zsearchUnder(t.root, sky, prov, caps)
	out, _ := st.CompactRows(sky.Rows())
	if !caps.Transitive {
		out = dominance.VerifyBlock(prov, out, b, tally)
	}
	return out
}

func (t *BlockTree) zsearchUnder(n int32, sky *BlockTree, prov dominance.Provider, caps dominance.Caps) {
	if caps.ParetoImplies && sky.DominatesAllOfRegion(t.region(n)) {
		return
	}
	nd := &t.nodes[n]
	if !nd.isLeaf() {
		for _, kid := range nd.kids {
			t.zsearchUnder(kid, sky, prov, caps)
		}
		return
	}
	for _, e := range nd.rows {
		var c probeCount
		dominated := sky.root >= 0 && sky.dominatesRowUnder(&c, sky.root, prov, caps, e)
		if !dominated && sky.root >= 0 {
			sky.removeDominatedUnder(&c, sky.root, prov, caps, e)
			if sky.nodes[sky.root].count == 0 {
				sky.root = -1
			}
		}
		sky.flush(&c)
		if !dominated {
			sky.Append(e)
		}
	}
}

// dominatesRowUnder reports whether some row under node n
// provider-dominates store row row, descending with capability-gated
// cuts.
func (t *BlockTree) dominatesRowUnder(c *probeCount, n int32, prov dominance.Provider, caps dominance.Caps, row int32) bool {
	c.region++
	r, g := t.region(n), t.st.Grid(row)
	if caps.ImpliesPareto && zorder.RegionCannotDominatePointGrid(r, g) {
		return false
	}
	if caps.ParetoImplies && zorder.GridStrictDominates(r.MaxG, g) {
		// Every row of this (non-empty) subtree Pareto-dominates row,
		// hence provider-dominates it.
		return true
	}
	nd := &t.nodes[n]
	if nd.isLeaf() {
		c.dom += int64(len(nd.rows))
		for _, e := range nd.rows {
			if prov.DominatesRows(t.st.blk, int(e), t.st.blk, int(row)) {
				return true
			}
		}
		return false
	}
	for _, kid := range nd.kids {
		if t.dominatesRowUnder(c, kid, prov, caps, row) {
			return true
		}
	}
	return false
}

// removeDominatedUnder deletes every row under node n that store row
// row provider-dominates and returns how many were removed.
func (t *BlockTree) removeDominatedUnder(c *probeCount, n int32, prov dominance.Provider, caps dominance.Caps, row int32) int {
	c.region++
	g := t.st.Grid(row)
	if caps.ImpliesPareto && zorder.GridSomeGreater(g, t.region(n).MaxG) {
		return 0
	}
	nd := &t.nodes[n]
	if nd.isLeaf() {
		c.dom += int64(len(nd.rows))
		kept := nd.rows[:0]
		for _, e := range nd.rows {
			if !prov.DominatesRows(t.st.blk, int(row), t.st.blk, int(e)) {
				kept = append(kept, e)
			}
		}
		removed := len(nd.rows) - len(kept)
		nd.rows = kept
		nd.count = int32(len(kept))
		return removed
	}
	removed := 0
	kept := nd.kids[:0]
	for _, kid := range nd.kids {
		if caps.ParetoImplies && zorder.PointGridDominatesRegion(g, t.region(kid)) {
			// Entire child Pareto-dominated, hence provider-dominated.
			removed += int(t.nodes[kid].count)
			continue
		}
		removed += t.removeDominatedUnder(c, kid, prov, caps, row)
		if t.nodes[kid].count > 0 {
			kept = append(kept, kid)
		}
	}
	nd.kids = kept
	nd.count -= int32(removed)
	return removed
}
