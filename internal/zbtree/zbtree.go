// Package zbtree implements the ZB-tree of Lee et al. [5] that the
// paper builds on: a balanced tree over Z-addresses whose leaf nodes
// hold data points and whose internal nodes hold the RZ-region of
// their subtree. On top of it the package provides
//
//   - ZSearch: the state-of-the-art centralized skyline algorithm
//     ("ZS" in the paper's evaluation), which visits points in Z-order
//     and prunes whole subtrees with RZ-region dominance tests; and
//   - MergeBlock: the paper's Z-merge (Algorithm 4) for merging skyline
//     candidate sets, over the slab BlockTree that shares one columnar
//     Store between the trees it merges.
//
// All region-level pruning uses the conservative grid tests of package
// zorder, so results are exact with respect to the original float
// coordinates (see DESIGN.md §5).
package zbtree

import (
	"fmt"
	"sort"

	"zskyline/internal/metrics"
	"zskyline/internal/point"
	"zskyline/internal/zorder"
)

// DefaultFanout is the node capacity used when callers pass 0.
const DefaultFanout = 16

// Entry is one indexed point: its Z-address, quantized grid
// coordinates, and the original float point.
type Entry struct {
	Z zorder.ZAddr
	G []uint32
	P point.Point
}

// NewEntry quantizes and encodes p with enc.
func NewEntry(enc *zorder.Encoder, p point.Point) Entry {
	g := enc.Grid(p)
	return Entry{Z: enc.EncodeGrid(g), G: g, P: p}
}

type node struct {
	minZ, maxZ zorder.ZAddr
	region     zorder.Region
	children   []*node
	entries    []Entry
	count      int
}

func (n *node) isLeaf() bool { return n.children == nil }

// Tree is a ZB-tree. It is not safe for concurrent mutation; the
// pipeline uses one tree per worker.
type Tree struct {
	enc    *zorder.Encoder
	fanout int
	root   *node
	tally  *metrics.Tally
}

// New returns an empty ZB-tree. fanout <= 0 selects DefaultFanout;
// tally may be nil.
func New(enc *zorder.Encoder, fanout int, tally *metrics.Tally) *Tree {
	if fanout <= 0 {
		fanout = DefaultFanout
	}
	if fanout < 2 {
		fanout = 2
	}
	return &Tree{enc: enc, fanout: fanout, tally: tally}
}

// Build bulk-loads a balanced tree bottom-up from entries, sorting
// them by Z-address first (a stable sort, so ties keep input order).
func Build(enc *zorder.Encoder, fanout int, entries []Entry, tally *metrics.Tally) *Tree {
	t := New(enc, fanout, tally)
	if len(entries) == 0 {
		return t
	}
	es := make([]Entry, len(entries))
	copy(es, entries)
	sort.SliceStable(es, func(i, j int) bool { return zorder.Compare(es[i].Z, es[j].Z) < 0 })
	// Leaves.
	var level []*node
	for lo := 0; lo < len(es); lo += t.fanout {
		hi := lo + t.fanout
		if hi > len(es) {
			hi = len(es)
		}
		leaf := &node{entries: es[lo:hi:hi], count: hi - lo}
		leaf.minZ = leaf.entries[0].Z
		leaf.maxZ = leaf.entries[len(leaf.entries)-1].Z
		leaf.region = enc.RegionOf(leaf.minZ, leaf.maxZ)
		level = append(level, leaf)
	}
	// Internal levels.
	for len(level) > 1 {
		var up []*node
		for lo := 0; lo < len(level); lo += t.fanout {
			hi := lo + t.fanout
			if hi > len(level) {
				hi = len(level)
			}
			kids := level[lo:hi:hi]
			n := &node{children: kids}
			for _, c := range kids {
				n.count += c.count
			}
			n.minZ = kids[0].minZ
			n.maxZ = kids[len(kids)-1].maxZ
			n.region = enc.RegionOf(n.minZ, n.maxZ)
			up = append(up, n)
		}
		level = up
	}
	t.root = level[0]
	return t
}

// BuildFromPoints encodes pts and bulk-loads them. Z-addresses and
// grid coordinates go into two shared arenas rather than per-point
// allocations; entries hold views into them.
func BuildFromPoints(enc *zorder.Encoder, fanout int, pts []point.Point, tally *metrics.Tally) *Tree {
	entries := make([]Entry, len(pts))
	w, d := enc.Words(), enc.Dims()
	zarena := make([]uint64, len(pts)*w)
	garena := make([]uint32, len(pts)*d)
	for i, p := range pts {
		z := zorder.ZAddr(zarena[i*w : (i+1)*w : (i+1)*w])
		g := garena[i*d : (i+1)*d : (i+1)*d]
		enc.EncodeInto(z, g, p)
		entries[i] = Entry{Z: z, G: g, P: p}
	}
	return Build(enc, fanout, entries, tally)
}

// Len returns the number of points in the tree.
func (t *Tree) Len() int {
	if t.root == nil {
		return 0
	}
	return t.root.count
}

// Empty reports whether the tree holds no points.
func (t *Tree) Empty() bool { return t.Len() == 0 }

// Encoder returns the encoder the tree was built with.
func (t *Tree) Encoder() *zorder.Encoder { return t.enc }

// Entries returns all entries in Z-order.
func (t *Tree) Entries() []Entry {
	out := make([]Entry, 0, t.Len())
	var walk func(n *node)
	walk = func(n *node) {
		if n == nil {
			return
		}
		if n.isLeaf() {
			out = append(out, n.entries...)
			return
		}
		for _, c := range n.children {
			walk(c)
		}
	}
	walk(t.root)
	return out
}

// Points returns all stored points in Z-order.
func (t *Tree) Points() []point.Point {
	es := t.Entries()
	pts := make([]point.Point, len(es))
	for i, e := range es {
		pts[i] = e.P
	}
	return pts
}

// Append inserts an entry whose Z-address is >= every address already
// in the tree (insertion at the rightmost edge). This is the only
// mutation ZSearch needs: skyline points arrive in Z-order. It panics
// if the ordering precondition is violated, because silent corruption
// of the index would invalidate every later dominance test.
func (t *Tree) Append(e Entry) {
	if t.root == nil {
		t.root = &node{entries: []Entry{e}, count: 1, minZ: e.Z, maxZ: e.Z,
			region: t.enc.RegionOfPoint(e.Z)}
		return
	}
	if zorder.Compare(e.Z, t.root.maxZ) < 0 {
		panic(fmt.Sprintf("zbtree: Append out of Z-order: %s < %s", e.Z, t.root.maxZ))
	}
	if up := t.appendAt(t.root, e); up != nil {
		old := t.root
		t.root = &node{children: []*node{old, up}, count: old.count + up.count,
			minZ: old.minZ, maxZ: up.maxZ}
		t.root.region = t.enc.RegionOf(t.root.minZ, t.root.maxZ)
	}
}

// appendAt inserts e under n (rightmost path) and returns a new right
// sibling if n overflowed.
func (t *Tree) appendAt(n *node, e Entry) *node {
	if n.isLeaf() {
		if len(n.entries) < t.fanout {
			n.entries = append(n.entries, e)
			n.count++
			n.maxZ = e.Z
			n.region = t.enc.RegionOf(n.minZ, n.maxZ)
			return nil
		}
		return &node{entries: []Entry{e}, count: 1, minZ: e.Z, maxZ: e.Z,
			region: t.enc.RegionOfPoint(e.Z)}
	}
	last := n.children[len(n.children)-1]
	up := t.appendAt(last, e)
	if up != nil {
		if len(n.children) < t.fanout {
			n.children = append(n.children, up)
			up = nil
		}
	}
	if up == nil {
		n.count++
		n.maxZ = e.Z
		n.region = t.enc.RegionOf(n.minZ, n.maxZ)
		return nil
	}
	// n is full: push the new sibling up wrapped in a fresh node.
	return &node{children: []*node{up}, count: up.count, minZ: up.minZ, maxZ: up.maxZ,
		region: up.region}
}

// DominatesPoint reports whether some point in the tree strictly
// dominates p (exact float semantics; grid tests only prune).
func (t *Tree) DominatesPoint(g []uint32, p point.Point) bool {
	return t.dominatesPoint(t.root, g, p)
}

func (t *Tree) dominatesPoint(n *node, g []uint32, p point.Point) bool {
	if n == nil {
		return false
	}
	t.tally.AddRegionTests(1)
	if zorder.RegionCannotDominatePointGrid(n.region, g) {
		return false
	}
	if zorder.GridStrictDominates(n.region.MaxG, g) {
		// Every point of this (non-empty) subtree dominates p.
		return true
	}
	if n.isLeaf() {
		t.tally.AddDominanceTests(int64(len(n.entries)))
		for _, e := range n.entries {
			if point.Dominates(e.P, p) {
				return true
			}
		}
		return false
	}
	for _, c := range n.children {
		if t.dominatesPoint(c, g, p) {
			return true
		}
	}
	return false
}

// DominatesAllOfRegion reports whether some single tree point strictly
// dominates every float point that could lie in region r.
func (t *Tree) DominatesAllOfRegion(r zorder.Region) bool {
	return t.dominatesRegion(t.root, r)
}

func (t *Tree) dominatesRegion(n *node, r zorder.Region) bool {
	if n == nil {
		return false
	}
	t.tally.AddRegionTests(1)
	// Every point in this subtree has grid >= region.MinG per dim; if
	// the subtree's best corner is not strictly below r's min corner in
	// every dim, no point here qualifies.
	if !zorder.GridStrictDominates(n.region.MinG, r.MinG) {
		return false
	}
	if zorder.GridStrictDominates(n.region.MaxG, r.MinG) {
		return true
	}
	if n.isLeaf() {
		for _, e := range n.entries {
			if zorder.GridStrictDominates(e.G, r.MinG) {
				return true
			}
		}
		return false
	}
	for _, c := range n.children {
		if t.dominatesRegion(c, r) {
			return true
		}
	}
	return false
}

// RemoveDominatedBy deletes every stored point strictly dominated by p
// and returns how many were removed. Interior regions are left as-is
// (they remain valid supersets), matching the paper's strategy of
// re-balancing once at the end of a merge.
func (t *Tree) RemoveDominatedBy(g []uint32, p point.Point) int {
	if t.root == nil {
		return 0
	}
	removed := t.removeDominated(t.root, g, p)
	if t.root.count == 0 {
		t.root = nil
	}
	return removed
}

func (t *Tree) removeDominated(n *node, g []uint32, p point.Point) int {
	t.tally.AddRegionTests(1)
	// p cannot dominate anything here if p's grid exceeds the region's
	// max corner in some dimension.
	if zorder.GridSomeGreater(g, n.region.MaxG) {
		return 0
	}
	if n.isLeaf() {
		kept := n.entries[:0]
		removed := 0
		t.tally.AddDominanceTests(int64(len(n.entries)))
		for _, e := range n.entries {
			if point.Dominates(p, e.P) {
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
		if zorder.PointGridDominatesRegion(g, c.region) {
			// Entire child dominated: certified at grid level.
			removed += c.count
			continue
		}
		removed += t.removeDominated(c, g, p)
		if c.count > 0 {
			kept = append(kept, c)
		}
	}
	n.children = kept
	n.count -= removed
	return removed
}

// Height returns the number of levels (0 for an empty tree). Used by
// invariant tests.
func (t *Tree) Height() int {
	h := 0
	for n := t.root; n != nil; {
		h++
		if n.isLeaf() {
			break
		}
		n = n.children[0]
	}
	return h
}

// validate checks structural invariants; tests call it via export_test.
func (t *Tree) validate() error {
	if t.root == nil {
		return nil
	}
	var check func(n *node, depth int) (int, error)
	leafDepth := -1
	check = func(n *node, depth int) (int, error) {
		if n.isLeaf() {
			if leafDepth == -1 {
				leafDepth = depth
			} else if leafDepth != depth {
				return 0, fmt.Errorf("unbalanced: leaf at depth %d and %d", leafDepth, depth)
			}
			if len(n.entries) == 0 {
				return 0, fmt.Errorf("empty leaf")
			}
			prev := n.entries[0]
			for _, e := range n.entries[1:] {
				if zorder.Compare(prev.Z, e.Z) > 0 {
					return 0, fmt.Errorf("leaf entries out of Z-order")
				}
				prev = e
			}
			for _, e := range n.entries {
				for d := range e.G {
					if e.G[d] < n.region.MinG[d] || e.G[d] > n.region.MaxG[d] {
						return 0, fmt.Errorf("entry %v outside region [%v,%v]", e.G, n.region.MinG, n.region.MaxG)
					}
				}
			}
			if n.count != len(n.entries) {
				return 0, fmt.Errorf("leaf count %d != %d", n.count, len(n.entries))
			}
			return n.count, nil
		}
		if len(n.children) == 0 {
			return 0, fmt.Errorf("empty internal node")
		}
		total := 0
		for i, c := range n.children {
			cnt, err := check(c, depth+1)
			if err != nil {
				return 0, err
			}
			total += cnt
			if i > 0 && zorder.Compare(n.children[i-1].maxZ, c.minZ) > 0 {
				return 0, fmt.Errorf("children out of Z-order")
			}
			for d := range c.region.MinG {
				if c.region.MinG[d] < n.region.MinG[d] || c.region.MaxG[d] > n.region.MaxG[d] {
					return 0, fmt.Errorf("child region escapes parent")
				}
			}
		}
		if total != n.count {
			return 0, fmt.Errorf("internal count %d != %d", n.count, total)
		}
		return total, nil
	}
	_, err := check(t.root, 0)
	return err
}

// CountDominatedBy returns how many stored points p strictly
// dominates, without mutating the tree. Whole subtrees are counted at
// once when their region is certifiably dominated at the grid level.
func (t *Tree) CountDominatedBy(g []uint32, p point.Point) int {
	if t.root == nil {
		return 0
	}
	return t.countDominated(t.root, g, p)
}

func (t *Tree) countDominated(n *node, g []uint32, p point.Point) int {
	t.tally.AddRegionTests(1)
	if zorder.GridSomeGreater(g, n.region.MaxG) {
		return 0
	}
	if zorder.PointGridDominatesRegion(g, n.region) {
		return n.count
	}
	if n.isLeaf() {
		t.tally.AddDominanceTests(int64(len(n.entries)))
		c := 0
		for _, e := range n.entries {
			if point.Dominates(p, e.P) {
				c++
			}
		}
		return c
	}
	c := 0
	for _, child := range n.children {
		c += t.countDominated(child, g, p)
	}
	return c
}

// DominatorsOf returns every stored point that strictly dominates p —
// the "why is p not in the skyline" explanation query. Subtrees whose
// region cannot contain a dominator are pruned.
func (t *Tree) DominatorsOf(g []uint32, p point.Point) []point.Point {
	var out []point.Point
	t.dominatorsOf(t.root, g, p, &out)
	return out
}

func (t *Tree) dominatorsOf(n *node, g []uint32, p point.Point, out *[]point.Point) {
	if n == nil {
		return
	}
	t.tally.AddRegionTests(1)
	if zorder.RegionCannotDominatePointGrid(n.region, g) {
		return
	}
	if n.isLeaf() {
		t.tally.AddDominanceTests(int64(len(n.entries)))
		for _, e := range n.entries {
			if point.Dominates(e.P, p) {
				*out = append(*out, e.P)
			}
		}
		return
	}
	for _, c := range n.children {
		t.dominatorsOf(c, g, p, out)
	}
}
