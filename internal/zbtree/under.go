package zbtree

import (
	"zskyline/internal/dominance"
	"zskyline/internal/metrics"
	"zskyline/internal/point"
	"zskyline/internal/zorder"
)

// Provider-aware Z-search and point probes. The grid-level cuts of the
// Pareto kernels are Pareto facts, so each is gated on the capability
// that transfers it to the provider's relation (see package dominance):
//
//   - positive cuts ("everything in this region is grid-dominated, so
//     skip/evict it wholesale") eliminate under the provider only when
//     Pareto dominance implies provider dominance (Caps.ParetoImplies);
//   - negative cuts ("nothing in this region can grid-dominate p, so
//     don't descend") skip provider dominators only when provider
//     dominance implies Pareto dominance (Caps.ImpliesPareto).
//
// When a capability is absent the walk degrades to exhaustive region
// scans — every entry is tested point-by-point — which is always
// sound. For non-transitive relations the traversal result is a
// candidate superset; SkylineUnder closes it with a verification pass
// against all stored points.

// SkylineUnder computes the exact provider skyline of the stored
// points. The classic relation routes to the hardcoded Skyline fast
// path.
func (t *Tree) SkylineUnder(prov dominance.Provider) []point.Point {
	if dominance.IsPareto(prov) {
		return t.Skyline()
	}
	caps := prov.Caps()
	sky := New(t.enc, t.fanout, t.tally)
	t.zsearchUnder(t.root, sky, prov, caps)
	pts := sky.Points()
	if !caps.Transitive {
		pts = verifyAgainst(prov, pts, t.Points(), t.tally)
	}
	return pts
}

func (t *Tree) zsearchUnder(n *node, sky *Tree, prov dominance.Provider, caps dominance.Caps) {
	if n == nil {
		return
	}
	if caps.ParetoImplies && sky.DominatesAllOfRegion(n.region) {
		return
	}
	if n.isLeaf() {
		for _, e := range n.entries {
			if sky.dominatesPointUnder(sky.root, prov, caps, e.G, e.P) {
				continue
			}
			sky.removeDominatedByUnder(prov, caps, e.G, e.P)
			sky.Append(e)
		}
		return
	}
	for _, c := range n.children {
		t.zsearchUnder(c, sky, prov, caps)
	}
}

// DominatesPointUnder reports whether some stored point
// provider-dominates the point p with grid address g. The classic
// relation routes to the hardcoded DominatesPoint.
func (t *Tree) DominatesPointUnder(prov dominance.Provider, g []uint32, p point.Point) bool {
	if dominance.IsPareto(prov) {
		return t.DominatesPoint(g, p)
	}
	return t.dominatesPointUnder(t.root, prov, prov.Caps(), g, p)
}

// RemoveDominatedByUnder deletes every stored point that the point p
// (grid address g) provider-dominates and returns how many were
// removed. The classic relation routes to the hardcoded
// RemoveDominatedBy.
func (t *Tree) RemoveDominatedByUnder(prov dominance.Provider, g []uint32, p point.Point) int {
	if dominance.IsPareto(prov) {
		return t.RemoveDominatedBy(g, p)
	}
	return t.removeDominatedByUnder(prov, prov.Caps(), g, p)
}

// dominatesPointUnder reports whether some stored point
// provider-dominates p, descending with capability-gated cuts.
func (t *Tree) dominatesPointUnder(n *node, prov dominance.Provider, caps dominance.Caps, g []uint32, p point.Point) bool {
	if n == nil {
		return false
	}
	t.tally.AddRegionTests(1)
	if caps.ImpliesPareto && zorder.RegionCannotDominatePointGrid(n.region, g) {
		return false
	}
	if caps.ParetoImplies && zorder.GridStrictDominates(n.region.MaxG, g) {
		// Every point of this (non-empty) subtree Pareto-dominates p,
		// hence provider-dominates it.
		return true
	}
	if n.isLeaf() {
		t.tally.AddDominanceTests(int64(len(n.entries)))
		for _, e := range n.entries {
			if prov.Dominates(e.P, p) {
				return true
			}
		}
		return false
	}
	for _, c := range n.children {
		if t.dominatesPointUnder(c, prov, caps, g, p) {
			return true
		}
	}
	return false
}

// removeDominatedByUnder deletes every stored point p
// provider-dominates and returns how many were removed.
func (t *Tree) removeDominatedByUnder(prov dominance.Provider, caps dominance.Caps, g []uint32, p point.Point) int {
	if t.root == nil {
		return 0
	}
	removed := t.removeDominatedUnder(t.root, prov, caps, g, p)
	if t.root.count == 0 {
		t.root = nil
	}
	return removed
}

func (t *Tree) removeDominatedUnder(n *node, prov dominance.Provider, caps dominance.Caps, g []uint32, p point.Point) int {
	t.tally.AddRegionTests(1)
	if caps.ImpliesPareto && zorder.GridSomeGreater(g, n.region.MaxG) {
		return 0
	}
	if n.isLeaf() {
		kept := n.entries[:0]
		removed := 0
		t.tally.AddDominanceTests(int64(len(n.entries)))
		for _, e := range n.entries {
			if prov.Dominates(p, e.P) {
				removed++
				continue
			}
			kept = append(kept, e)
		}
		n.entries = kept
		n.count = len(kept)
		return removed
	}
	removed := 0
	kept := n.children[:0]
	for _, c := range n.children {
		if caps.ParetoImplies && zorder.PointGridDominatesRegion(g, c.region) {
			// Entire child Pareto-dominated, hence provider-dominated.
			removed += c.count
			continue
		}
		removed += t.removeDominatedUnder(c, prov, caps, g, p)
		if c.count > 0 {
			kept = append(kept, c)
		}
	}
	n.children = kept
	n.count -= removed
	return removed
}

// ZSearchUnder indexes pts into a ZB-tree and computes the provider
// skyline — the provider-generic form of ZSearch.
func ZSearchUnder(prov dominance.Provider, enc *zorder.Encoder, fanout int, pts []point.Point, tally *metrics.Tally) []point.Point {
	if dominance.IsPareto(prov) {
		return ZSearch(enc, fanout, pts, tally)
	}
	return BuildFromPoints(enc, fanout, pts, tally).SkylineUnder(prov)
}

// ZSearchBlockUnder is ZSearchUnder over a block, compacting survivors
// into a fresh block. The classic relation routes to the block-native
// ZSearchBlock fast path.
func ZSearchBlockUnder(prov dominance.Provider, enc *zorder.Encoder, fanout int, b point.Block, tally *metrics.Tally) point.Block {
	if dominance.IsPareto(prov) {
		return ZSearchBlock(enc, fanout, b, tally)
	}
	sky := ZSearchUnder(prov, enc, fanout, b.Points(), tally)
	return point.BlockOf(b.Dims, sky)
}

// verifyAgainst retests candidates against every point of all,
// dropping candidates some distinct point dominates — the closing scan
// for non-transitive relations. Identity (not coordinate equality)
// exempts a candidate from its own test, so duplicates are compared
// and survive exactly when the relation lets them (coordinate-equal
// points never dominate under an irreflexive relation).
func verifyAgainst(prov dominance.Provider, cands, all []point.Point, tally *metrics.Tally) []point.Point {
	var tests int64
	kept := cands[:0]
	for _, c := range cands {
		ok := true
		for _, q := range all {
			if sameBacking(c, q) {
				continue
			}
			tests++
			if prov.Dominates(q, c) {
				ok = false
				break
			}
		}
		if ok {
			kept = append(kept, c)
		}
	}
	tally.AddDominanceTests(tests)
	return kept
}

// sameBacking reports whether two points share a backing array.
func sameBacking(a, b point.Point) bool {
	return len(a) == len(b) && len(a) > 0 && &a[0] == &b[0]
}
