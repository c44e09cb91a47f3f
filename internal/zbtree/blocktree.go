// Package zbtree implements the ZB-tree of Lee et al. [5] that the
// paper builds on: a balanced tree over Z-addresses whose leaf nodes
// hold data points and whose internal nodes hold a region of their
// subtree — here the tight grid box of its rows, where the paper keeps
// the RZ-region of its first and last address (DESIGN.md §5). There is
// one tree type, BlockTree: its nodes live in a slab and its entries
// are rows of a shared columnar Store. On top of it the package
// provides
//
//   - ZSearch: the state-of-the-art centralized skyline algorithm
//     ("ZS" in the paper's evaluation), which visits points in Z-order
//     and prunes whole subtrees with region dominance tests;
//   - MergeBlock: the paper's Z-merge (Algorithm 4) for merging skyline
//     candidate sets, over trees that share one Store;
//   - DominatesPoint: the point probe of the SZB map filter
//     (Algorithm 3) and of every merge;
//   - the index queries of the public Index: range, dominator and
//     dominance-count walks and a progressive Z-search.
//
// All region-level pruning uses the conservative grid tests of package
// zorder, so results are exact with respect to the original float
// coordinates (see DESIGN.md §5).
//
// A Store carries the dominance relation its trees answer under
// (Store.Under; Pareto is the zero value), and the one set of walks
// gates each grid-level cut on the relation's capabilities (see package
// dominance): negative cuts and lane rejects ("nothing here can
// dominate p") fire only when the relation implies Pareto, positive
// cuts ("everything here is dominated") only when Pareto implies it,
// and a leaf under any other relation than Pareto runs the provider's
// exact test. Without a capability the walk tests row by row, which is
// always sound. The index queries answer under Pareto.
package zbtree

import (
	"fmt"
	"math"
	"slices"

	"zskyline/internal/dominance"
	"zskyline/internal/metrics"
	"zskyline/internal/point"
	"zskyline/internal/zorder"
)

// DefaultFanout is the node capacity used when callers pass 0.
const DefaultFanout = 16

// Store is the shared columnar backing of a BlockTree: the flat point
// block, its Z-address column, the rows' grid coordinates and their
// packed lanes (lanes.go), all stride-indexed by row, and the dominance
// relation its trees answer under. Trees built over the same Store
// reference rows by index instead of owning Entry copies, which is what
// lets the pipeline encode each point's Z-address exactly once per
// query and merge candidate sets without rematerializing them.
type Store struct {
	enc   *zorder.Encoder
	blk   point.Block
	zc    zorder.ZCol
	grid  []uint32 // Dims() stride per row, quantized once at store build
	lanes []uint64 // laneWords(Dims()) stride per row, packed from grid

	// The relation; the zero value is Pareto, whose exact test runs
	// inline. prov is nil under Pareto; noPos and noNeg turn off the
	// positive and the negative cuts the relation does not keep sound.
	prov         dominance.Provider
	noPos, noNeg bool
}

// NewStore encodes b's rows into a fresh Z-address column and grid
// arena — one quantization pass for the whole block.
func NewStore(enc *zorder.Encoder, b point.Block) *Store {
	st := &Store{enc: enc, blk: b}
	st.zc, st.grid = enc.EncodeBlockGrid(zorder.ZCol{}, nil, b)
	st.fillLanes()
	return st
}

// NewStoreWithZCol builds a Store over a block whose Z-addresses were
// already encoded upstream (the encode-once path). zc must hold enc's
// own address of every row of b: the grid arena is quantized from the
// rows — a multiplication per coordinate where de-interleaving walks
// every address bit — and equals the de-interleave of zc exactly when
// that holds (DESIGN.md §5).
func NewStoreWithZCol(enc *zorder.Encoder, b point.Block, zc zorder.ZCol) *Store {
	if zc.Len() != b.Len() || zc.Words != enc.Words() {
		panic(fmt.Sprintf("zbtree: zcol shape %d×%d does not match block %d rows under a %d-word encoder",
			zc.Len(), zc.Words, b.Len(), enc.Words()))
	}
	d := enc.Dims()
	st := &Store{enc: enc, blk: b, zc: zc, grid: make([]uint32, b.Len()*d)}
	for i := 0; i < b.Len(); i++ {
		enc.GridInto(st.grid[i*d:(i+1)*d], b.Row(i))
	}
	st.fillLanes()
	return st
}

// Under makes prov the relation that trees over st answer under and
// returns st; nil or Pareto leaves the zero value. Set it before
// building a tree over st.
func (st *Store) Under(prov dominance.Provider) *Store {
	st.prov, st.noPos, st.noNeg = nil, false, false
	if !dominance.IsPareto(prov) {
		caps := prov.Caps()
		st.prov, st.noPos, st.noNeg = prov, !caps.ParetoImplies, !caps.ImpliesPareto
	}
	return st
}

// fillLanes fills the lane arena from the grid arena.
func (st *Store) fillLanes() {
	n, d, lw, shift := st.Len(), st.enc.Dims(), laneWords(st.enc.Dims()), laneShift(st.enc.Bits())
	st.lanes = make([]uint64, n*lw)
	for i := 0; i < n; i++ {
		packLanes(st.lanes[i*lw:(i+1)*lw], st.grid[i*d:(i+1)*d], shift)
	}
}

// Len returns the number of rows in the store.
func (st *Store) Len() int { return st.blk.Len() }

// Row returns the float point of row i (zero-copy view).
func (st *Store) Row(i int32) point.Point { return st.blk.Row(int(i)) }

// Grid returns the grid coordinates of row i (zero-copy view).
func (st *Store) Grid(i int32) []uint32 {
	d := st.enc.Dims()
	lo := int(i) * d
	return st.grid[lo : lo+d : lo+d]
}

// rowLanes returns the packed lanes of row i (zero-copy view).
func (st *Store) rowLanes(i int32) []uint64 {
	lw := laneWords(st.enc.Dims())
	lo := int(i) * lw
	return st.lanes[lo : lo+lw : lo+lw]
}

// CompactRows copies the given rows out into a fresh block and
// Z-column, so results never pin the (potentially much larger) input
// arenas.
func (st *Store) CompactRows(rows []int32) (point.Block, zorder.ZCol) {
	return st.blk.Select(rows), st.zc.Select(rows)
}

// Representatives returns the up to k rows of [lo,hi) with the largest
// dominance volume Π(1−x̂) — the share of the encoder's box a row
// dominates, read off its grid coordinates — largest first, ties in
// store order. A handful of them takes out most of what the whole range
// would for a fraction of the tests.
func (st *Store) Representatives(lo, hi int32, k int) []int32 {
	scale := 1 / float64(uint64(1)<<st.enc.Bits())
	k = max(0, min(k, int(hi-lo)))
	reps := make([]int32, 0, k)
	vols := make([]float64, 0, k)
	for i := lo; i < hi && k > 0; i++ {
		vol := 1.0
		for _, g := range st.Grid(i) {
			vol *= 1 - float64(g)*scale
		}
		if len(reps) == k {
			if vol <= vols[k-1] {
				continue
			}
			reps, vols = reps[:k-1], vols[:k-1]
		}
		reps, vols = append(reps, i), append(vols, vol)
		for at := len(reps) - 1; at > 0 && vols[at-1] < vol; at-- {
			reps[at-1], reps[at] = reps[at], reps[at-1]
			vols[at-1], vols[at] = vols[at], vols[at-1]
		}
	}
	return reps
}

// bnode is one slab-allocated tree node, addressed by index into
// BlockTree.nodes. kids == nil marks a leaf. A node's box lives in the
// tree's arenas; RemoveDominatedBy leaves it a stale superset — Z-merge
// re-balances once at the end.
type bnode struct {
	kids  []int32 // child node ids; nil for leaves
	rows  []int32 // leaf rows in Z-order
	count int32
}

func (n *bnode) isLeaf() bool { return n.kids == nil }

// BlockTree is a ZB-tree whose nodes live in one slab and whose
// entries are row indices into a shared Store: no per-node heap
// allocation on the bulk-load path, no per-point ZAddr/grid clones
// anywhere. Read-only walks (every probe and query) may run
// concurrently; Append and RemoveDominatedBy may not.
type BlockTree struct {
	st     *Store
	fanout int
	d, lw  int            // the store's Dims() and laneWords(Dims()): the arenas' strides
	tally  *metrics.Tally // where the operations add their tests (see DominatesRow)
	nodes  []bnode
	// Box corner arenas, d stride per node id, and the box's min corner
	// packed into lanes, lw stride per node id.
	regMin, regMax []uint32
	minLanes       []uint64
	root           int32 // -1 when empty
	last           int32 // the largest row appended or built; Append's order check
}

// NewBlockTree returns an empty tree over st. fanout <= 0 selects
// DefaultFanout; tally, where the tree's operations add their tests,
// may be nil.
func NewBlockTree(st *Store, fanout int, tally *metrics.Tally) *BlockTree {
	if fanout <= 0 {
		fanout = DefaultFanout
	}
	if fanout < 2 {
		fanout = 2
	}
	d := st.enc.Dims()
	return &BlockTree{st: st, fanout: fanout, d: d, lw: laneWords(d), tally: tally, root: -1}
}

// newNode appends a zeroed node with an empty box to the slab, growing
// the box arenas in tandem, and returns its id. Callers must re-index
// t.nodes after calling (the slab may move).
func (t *BlockTree) newNode() int32 {
	id := int32(len(t.nodes))
	t.nodes = append(t.nodes, bnode{})
	for i := 0; i < t.d; i++ {
		t.regMin = append(t.regMin, math.MaxUint32)
	}
	t.regMax = append(t.regMax, make([]uint32, t.d)...)
	t.minLanes = append(t.minLanes, make([]uint64, t.lw)...)
	return id
}

// region returns node n's box as views into the corner arenas: it
// holds every row of the subtree, all any region test assumes.
func (t *BlockTree) region(n int32) zorder.Region {
	lo := int(n) * t.d
	return zorder.Region{MinG: t.regMin[lo : lo+t.d : lo+t.d], MaxG: t.boxMax(n)}
}

// boxMax returns node n's box max corner (a view).
func (t *BlockTree) boxMax(n int32) []uint32 {
	lo := int(n) * t.d
	return t.regMax[lo : lo+t.d : lo+t.d]
}

// boxLanes returns node n's box min corner in lanes (a view).
func (t *BlockTree) boxLanes(n int32) []uint64 {
	lo := int(n) * t.lw
	return t.minLanes[lo : lo+t.lw : lo+t.lw]
}

// growBox widens node n's box to hold the grids of rows and the boxes
// of kids, then repacks its lane corner.
func (t *BlockTree) growBox(n int32, rows, kids []int32) {
	r, grid := t.region(n), t.st.grid
	minG, maxG, d := r.MinG, r.MaxG[:len(r.MinG)], len(r.MinG)
	for _, e := range rows {
		for k, v := range grid[int(e)*d:][:d] {
			minG[k], maxG[k] = min(minG[k], v), max(maxG[k], v)
		}
	}
	for _, c := range kids {
		kr := t.region(c)
		for k, v := range kr.MinG[:d] {
			minG[k], maxG[k] = min(minG[k], v), max(maxG[k], kr.MaxG[k])
		}
	}
	packLanes(t.boxLanes(n), minG, laneShift(t.st.enc.Bits()))
}

// Len returns the number of rows in the tree.
func (t *BlockTree) Len() int {
	if t.root < 0 {
		return 0
	}
	return int(t.nodes[t.root].count)
}

// Empty reports whether the tree holds no rows.
func (t *BlockTree) Empty() bool { return t.Len() == 0 }

// Store returns the shared backing store.
func (t *BlockTree) Store() *Store { return t.st }

// Rows returns all stored row indices in Z-order.
func (t *BlockTree) Rows() []int32 {
	out := make([]int32, 0, t.Len())
	return t.appendRows(t.root, out)
}

func (t *BlockTree) appendRows(n int32, out []int32) []int32 {
	if n < 0 {
		return out
	}
	nd := &t.nodes[n]
	if nd.isLeaf() {
		return append(out, nd.rows...)
	}
	for _, c := range nd.kids {
		out = t.appendRows(c, out)
	}
	return out
}

// BuildStore bulk-loads a balanced tree over every row of st.
func BuildStore(st *Store, fanout int, tally *metrics.Tally) *BlockTree {
	rows := make([]int32, st.Len())
	for i := range rows {
		rows[i] = int32(i)
	}
	return BuildRows(st, fanout, rows, tally)
}

// BuildRows bulk-loads a balanced tree holding the given store rows,
// sorting them by Z-address first (stably, so ties keep input order).
// It takes ownership of rows and sorts it in place, allocating nothing
// and skipping rows already in Z-order; the slice becomes the leaf-row
// arena.
func BuildRows(st *Store, fanout int, rows []int32, tally *metrics.Tally) *BlockTree {
	t := NewBlockTree(st, fanout, tally)
	if len(rows) == 0 {
		return t
	}
	byZ := func(a, b int32) int { return st.zc.Compare(int(a), int(b)) }
	if !slices.IsSortedFunc(rows, byZ) {
		slices.SortStableFunc(rows, byZ)
	}
	// Leaves: subslices of the sorted permutation arena.
	nLeaves := (len(rows) + t.fanout - 1) / t.fanout
	nNodes := nLeaves + nLeaves/(t.fanout-1) + 2
	t.nodes = make([]bnode, 0, nNodes)
	t.regMin, t.regMax = make([]uint32, 0, nNodes*t.d), make([]uint32, 0, nNodes*t.d)
	t.minLanes = make([]uint64, 0, nNodes*t.lw)
	level := make([]int32, 0, nLeaves)
	for lo := 0; lo < len(rows); lo += t.fanout {
		hi := lo + t.fanout
		if hi > len(rows) {
			hi = len(rows)
		}
		id := t.newNode()
		nd := &t.nodes[id]
		nd.rows = rows[lo:hi:hi]
		nd.count = int32(hi - lo)
		t.growBox(id, nd.rows, nil)
		level = append(level, id)
	}
	// Internal levels: kid lists are subslices of one per-level arena.
	for len(level) > 1 {
		arena := append([]int32(nil), level...)
		up := level[:0]
		for lo := 0; lo < len(arena); lo += t.fanout {
			hi := lo + t.fanout
			if hi > len(arena) {
				hi = len(arena)
			}
			kids := arena[lo:hi:hi]
			id := t.newNode()
			nd := &t.nodes[id]
			nd.kids = kids
			for _, c := range kids {
				nd.count += t.nodes[c].count
			}
			t.growBox(id, nil, kids)
			up = append(up, id)
		}
		level = up
	}
	t.root = level[0]
	t.last = rows[len(rows)-1]
	return t
}

// Append inserts a row whose Z-address is >= every address already in
// the tree (rightmost-edge insertion). This is the only insertion
// Z-search needs: skyline rows arrive in Z-order. It panics on an
// out-of-order insert, because a silently corrupted index would
// invalidate every later dominance test.
func (t *BlockTree) Append(row int32) {
	if t.root < 0 {
		id := t.newNode()
		nd := &t.nodes[id]
		nd.rows = make([]int32, 1, t.fanout)
		nd.rows[0] = row
		nd.count = 1
		t.growBox(id, nd.rows, nil)
		t.root, t.last = id, row
		return
	}
	if t.st.zc.Compare(int(row), int(t.last)) < 0 {
		panic(fmt.Sprintf("zbtree: Append out of Z-order: row %d < row %d", row, t.last))
	}
	t.last = row
	if up := t.appendAt(t.root, row); up >= 0 {
		id := t.newNode()
		old, sib := t.root, up
		nd := &t.nodes[id]
		nd.kids = make([]int32, 2, t.fanout)
		nd.kids[0], nd.kids[1] = old, sib
		nd.count = t.nodes[old].count + t.nodes[sib].count
		t.growBox(id, nil, nd.kids)
		t.root = id
	}
}

// appendAt inserts row under node n (rightmost path) and returns the
// id of a new right sibling if n overflowed, else -1. Every node the
// row joins widens its box to hold the row's grid.
func (t *BlockTree) appendAt(n, row int32) int32 {
	if t.nodes[n].isLeaf() {
		if len(t.nodes[n].rows) < t.fanout {
			nd := &t.nodes[n]
			nd.rows = append(nd.rows, row)
			nd.count++
			t.growBox(n, nd.rows[len(nd.rows)-1:], nil)
			return -1
		}
		id := t.newNode()
		nd := &t.nodes[id]
		nd.rows = make([]int32, 1, t.fanout)
		nd.rows[0] = row
		nd.count = 1
		t.growBox(id, nd.rows, nil)
		return id
	}
	last := t.nodes[n].kids[len(t.nodes[n].kids)-1]
	up := t.appendAt(last, row)
	if up >= 0 && len(t.nodes[n].kids) < t.fanout {
		t.nodes[n].kids = append(t.nodes[n].kids, up)
		up = -1
	}
	if up < 0 {
		nd := &t.nodes[n]
		nd.count++
		t.growBox(n, nil, nd.kids[len(nd.kids)-1:])
		return -1
	}
	// n is full: push the new sibling up wrapped in a fresh node.
	id := t.newNode()
	nd := &t.nodes[id]
	nd.kids = make([]int32, 1, t.fanout)
	nd.kids[0] = up
	nd.count = t.nodes[up].count
	t.growBox(id, nil, nd.kids)
	return id
}

// Counting. A tree's walks come in two kinds, and both count into a
// plain metrics.Count that one goroutine owns. The probes
// (DominatesRow, DominatesPoint, DominatesAllOfRegion,
// RemoveDominatedBy) add to the caller's Count and never touch a Tally:
// tasks that probe one tree at once each pass their own, and add it to
// the shared Tally once, when they end. The operations (SkylineRows,
// SkylineProgressive, MergeBlock and the index queries in queries.go)
// are such a task themselves: they count every probe they make into
// one Count and add it to the tree's tally when they return.

// DominatesRow reports whether some stored row dominates row under the
// store's relation (exact float semantics; grid and lane tests only
// prune), counting its tests into c.
func (t *BlockTree) DominatesRow(c *metrics.Count, row int32) bool {
	return t.root >= 0 && t.dominatesPoint(c, t.root, t.st.Grid(row), t.st.rowLanes(row), t.st.Row(row))
}

// DominatesPoint is DominatesRow for a point outside the store: g must
// be p's grid coordinates under the store's encoder. It only reads the
// tree, so concurrent probes of one tree are safe, each with its own c.
func (t *BlockTree) DominatesPoint(c *metrics.Count, g []uint32, p point.Point) bool {
	if t.root < 0 || len(p) != t.st.blk.Dims {
		return false
	}
	var buf [8]uint64 // d <= 32 packs on the stack
	pl := buf[:min(t.lw, len(buf))]
	if len(pl) < t.lw {
		pl = make([]uint64, t.lw)
	}
	packLanes(pl, g, laneShift(t.st.enc.Bits()))
	return t.dominatesPoint(c, t.root, g, pl, p)
}

// dominatesPoint probes node n; g and pl are p's grid and lanes.
func (t *BlockTree) dominatesPoint(c *metrics.Count, n int32, g []uint32, pl []uint64, p point.Point) bool {
	c.RegionTests++
	st := t.st
	// The box's min corner in lanes: RegionCannotDominatePointGrid at
	// 15 bits per dimension, two word operations at d = 8.
	if !st.noNeg && lanesSomeGreater(t.boxLanes(n), pl) {
		return false
	}
	if !st.noPos && zorder.GridStrictDominates(t.boxMax(n), g) {
		return true
	}
	nd := &t.nodes[n]
	if !nd.isLeaf() {
		for _, kid := range nd.kids {
			if t.dominatesPoint(c, kid, g, pl, p) {
				return true
			}
		}
		return false
	}
	c.DominanceTests += int64(len(nd.rows))
	if st.prov != nil {
		return st.someDominatesUnder(nd.rows, pl, p)
	}
	// The Pareto leaf scan is point.Dominates(row, p) over the block's
	// flat array, after the lanes reject what they can: no row view, no
	// call, four coordinates to a branch.
	data, d := st.blk.Data, len(p)
	lanes, lw := st.lanes, len(pl)
rows:
	for _, e := range nd.rows {
		if lanesSomeGreater(lanes[int(e)*lw:][:lw], pl) {
			continue
		}
		q := data[int(e)*d:][:d]
		k := 0
		for ; k+4 <= d; k += 4 {
			if point.AnyGreater4(q[k:], p[k:]) {
				continue rows
			}
		}
		for ; k < d; k++ {
			if q[k] > p[k] {
				continue rows
			}
		}
		for k, pv := range p {
			if q[k] < pv {
				return true
			}
		}
	}
	return false
}

// DominatesAllOfRegion reports whether some single stored row strictly
// dominates every float point that could lie in region r, counting its
// tests into c. It is a positive cut: under a relation Pareto does not
// imply, it is false.
func (t *BlockTree) DominatesAllOfRegion(c *metrics.Count, r zorder.Region) bool {
	return t.root >= 0 && !t.st.noPos && t.dominatesRegion(c, t.root, r)
}

func (t *BlockTree) dominatesRegion(c *metrics.Count, n int32, r zorder.Region) bool {
	c.RegionTests++
	nr := t.region(n)
	if !zorder.GridStrictDominates(nr.MinG, r.MinG) {
		return false
	}
	if zorder.GridStrictDominates(nr.MaxG, r.MinG) {
		return true
	}
	nd := &t.nodes[n]
	if nd.isLeaf() {
		for _, e := range nd.rows {
			if zorder.GridStrictDominates(t.st.Grid(e), r.MinG) {
				return true
			}
		}
		return false
	}
	for _, kid := range nd.kids {
		if t.dominatesRegion(c, kid, r) {
			return true
		}
	}
	return false
}

// RemoveDominatedBy deletes every stored row that row dominates under
// the store's relation, counting its tests into c, and returns how many
// were removed. Interior regions are left as-is (they remain valid
// supersets), matching the paper's strategy of re-balancing once at the
// end of a merge.
func (t *BlockTree) RemoveDominatedBy(c *metrics.Count, row int32) int {
	if t.root < 0 {
		return 0
	}
	removed := t.removeDominated(c, t.root, t.st.Grid(row), t.st.rowLanes(row), row)
	if t.nodes[t.root].count == 0 {
		t.root = -1
	}
	return removed
}

// removeDominated is RemoveDominatedBy under node n; g and rl are row's
// grid and lanes.
func (t *BlockTree) removeDominated(c *metrics.Count, n int32, g []uint32, rl []uint64, row int32) int {
	c.RegionTests++
	st := t.st
	if !st.noNeg && zorder.GridSomeGreater(g, t.boxMax(n)) {
		return 0
	}
	nd := &t.nodes[n]
	if nd.isLeaf() {
		c.DominanceTests += int64(len(nd.rows))
		var kept []int32
		if st.prov != nil {
			kept = st.undominatedUnder(nd.rows, rl, row)
		} else {
			kept = nd.rows[:0]
			lanes, lw := st.lanes, len(rl)
			for _, e := range nd.rows {
				// Row cannot dominate e when one of its lanes exceeds e's.
				if lanesSomeGreater(rl, lanes[int(e)*lw:][:lw]) || !point.DominatesRows(st.blk, int(row), st.blk, int(e)) {
					kept = append(kept, e)
				}
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
		if !st.noPos && zorder.PointGridDominatesRegion(g, t.region(kid)) {
			removed += int(t.nodes[kid].count)
			continue
		}
		removed += t.removeDominated(c, kid, g, rl, row)
		if t.nodes[kid].count > 0 {
			kept = append(kept, kid)
		}
	}
	nd.kids = kept
	nd.count -= int32(removed)
	return removed
}

// someDominatesUnder is dominatesPoint's leaf test under the store's
// provider: whether one of rows dominates p, whose lanes are pl.
func (st *Store) someDominatesUnder(rows []int32, pl []uint64, p point.Point) bool {
	for _, e := range rows {
		if (st.noNeg || !lanesSomeGreater(st.rowLanes(e), pl)) && st.prov.Dominates(st.Row(e), p) {
			return true
		}
	}
	return false
}

// undominatedUnder is removeDominated's leaf test under the store's
// provider: it compacts rows in place to those row, whose lanes are rl,
// does not dominate.
func (st *Store) undominatedUnder(rows []int32, rl []uint64, row int32) []int32 {
	kept := rows[:0]
	for _, e := range rows {
		if (!st.noNeg && lanesSomeGreater(rl, st.rowLanes(e))) || !st.prov.DominatesRows(st.blk, int(row), st.blk, int(e)) {
			kept = append(kept, e)
		}
	}
	return kept
}

// SkylineRows runs Z-search over the tree and returns the skyline's
// row indices in Z-order: a depth-first traversal in Z-order that
// keeps the running skyline in a second BlockTree over the same store.
// Because Z-order is a topological order for dominance (a dominator's
// Z-address is never larger than its dominatee's), each row only needs
// to be tested against already-accepted rows. The only exception is
// rows with equal Z-addresses (grid-level ties): a row that dominates an
// accepted one has an address no larger than it, and so no larger than
// the last accepted row's, which is no larger than its own — all three
// are equal. So a RemoveDominatedBy sweep runs only when a row ties the
// last accepted row's address. The result is the exact skyline of the
// stored float points. Under a relation that does not imply Pareto,
// Z-order is no topological order, and the sweep runs on every
// acceptance, evicting every accepted row a later one dominates: the
// walk is then block-nested loops in Z-order, exact under a transitive
// relation and otherwise a set of rows none of which dominates another,
// which a caller closes against the input.
//
// The search adds its tests to the tree's tally once, when it returns.
func (t *BlockTree) SkylineRows() []int32 {
	var c metrics.Count
	sky := NewBlockTree(t.st, t.fanout, nil)
	t.zsearch(&c, t.root, sky)
	t.tally.Add(c)
	return sky.Rows()
}

func (t *BlockTree) zsearch(c *metrics.Count, n int32, sky *BlockTree) {
	if n < 0 {
		return
	}
	if sky.DominatesAllOfRegion(c, t.region(n)) {
		return
	}
	if t.nodes[n].isLeaf() {
		for _, e := range t.nodes[n].rows {
			if sky.DominatesRow(c, e) {
				continue
			}
			if sky.st.noNeg || sky.tiesLast(e) {
				sky.RemoveDominatedBy(c, e)
			}
			sky.Append(e)
		}
		return
	}
	for _, kid := range t.nodes[n].kids {
		t.zsearch(c, kid, sky)
	}
}

// tiesLast reports whether row has the Z-address of the last row
// appended to a non-empty t.
func (t *BlockTree) tiesLast(row int32) bool {
	return t.root >= 0 && t.st.zc.Compare(int(row), int(t.last)) == 0
}

// incomparableWith is a conservative, depth-bounded check that no
// stored row and no float point of region r can dominate one another,
// so Z-merge can take a whole src branch without opening it. It is a
// negative cut: under a relation that does not imply Pareto, it is
// false.
func (t *BlockTree) incomparableWith(c *metrics.Count, r zorder.Region, depth int) bool {
	return t.root >= 0 && !t.st.noNeg && t.incomparable(c, t.root, r, depth)
}

func (t *BlockTree) incomparable(c *metrics.Count, n int32, r zorder.Region, depth int) bool {
	c.RegionTests++
	if zorder.RegionsIncomparable(t.region(n), r) {
		return true
	}
	nd := &t.nodes[n]
	if depth == 0 || nd.isLeaf() {
		return false
	}
	for _, kid := range nd.kids {
		if !t.incomparable(c, kid, r, depth-1) {
			return false
		}
	}
	return true
}

// MergeBlock implements Z-merge (Algorithm 4) over two trees sharing
// one Store: BFS over src, discard branches an existing skyline row
// region-dominates, stash branches incomparable with the whole skyline,
// and let surviving leaf rows prune dominated sky rows before the final
// rebalance. Both inputs must individually be skyline candidate sets.
// Under a transitive relation the result is their union's skyline;
// under any other, a superset of it. The merge adds its tests to sky's
// tally once, when it returns.
func MergeBlock(sky, src *BlockTree) *BlockTree {
	if sky.st != src.st {
		panic("zbtree: MergeBlock requires both trees to share one Store")
	}
	if src.Empty() {
		return sky
	}
	if sky.Empty() {
		return src
	}
	var c metrics.Count
	var stash, survivors []int32
	queue := []int32{src.root}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		if sky.DominatesAllOfRegion(&c, src.region(n)) {
			continue
		}
		if sky.incomparableWith(&c, src.region(n), 2) {
			stash = src.appendRows(n, stash)
			continue
		}
		nd := &src.nodes[n]
		if !nd.isLeaf() {
			queue = append(queue, nd.kids...)
			continue
		}
		for _, e := range nd.rows {
			if sky.DominatesRow(&c, e) {
				continue
			}
			sky.RemoveDominatedBy(&c, e)
			survivors = append(survivors, e)
		}
	}
	sky.tally.Add(c)
	all := sky.Rows()
	all = append(all, survivors...)
	all = append(all, stash...)
	return BuildRows(sky.st, sky.fanout, all, sky.tally)
}

// ZSearchBlock is the block-native "ZS" entry point: index b's rows
// into a BlockTree and return the exact skyline as a compact block.
func ZSearchBlock(enc *zorder.Encoder, fanout int, b point.Block, tally *metrics.Tally) point.Block {
	out, _ := ZSearchGroup(enc, fanout, b, zorder.ZCol{}, tally)
	return out
}

// ZSearchGroup is ZSearchBlock for callers that already hold b's
// Z-address column (the pipeline's encode-once path): when zc has one
// enc-encoded address per row it is reused verbatim, otherwise the
// block is encoded here. Returns the skyline block and the matching
// sub-column of survivor addresses, both compacted so they never pin
// the input arenas.
func ZSearchGroup(enc *zorder.Encoder, fanout int, b point.Block, zc zorder.ZCol, tally *metrics.Tally) (point.Block, zorder.ZCol) {
	return ZSearchGroupUnder(nil, enc, fanout, b, zc, tally)
}

// ZSearchGroupUnder is ZSearchGroup under the relation prov (nil is
// Pareto): the store carries it, so the walk gates its cuts on prov's
// capabilities. Under a non-transitive relation the result is a set of
// rows none of which dominates another, not yet the skyline (see
// SkylineRows).
func ZSearchGroupUnder(prov dominance.Provider, enc *zorder.Encoder, fanout int, b point.Block, zc zorder.ZCol, tally *metrics.Tally) (point.Block, zorder.ZCol) {
	if b.Len() == 0 {
		return point.Block{Dims: b.Dims}, zorder.ZCol{Words: enc.Words()}
	}
	st, rows := zsearchStore(prov, enc, fanout, b, zc, tally)
	return st.CompactRows(rows)
}

// ZSearchRowsUnder is ZSearchGroupUnder without the copy: the skyline
// as positions into b, in Z-order, for callers that hold b already.
func ZSearchRowsUnder(prov dominance.Provider, enc *zorder.Encoder, fanout int, b point.Block, zc zorder.ZCol, tally *metrics.Tally) []int32 {
	if b.Len() == 0 {
		return nil
	}
	_, rows := zsearchStore(prov, enc, fanout, b, zc, tally)
	return rows
}

// zsearchStore indexes the non-empty block b under enc, reusing zc when
// it holds one enc-encoded address per row, Z-searches it under prov,
// and returns the store (its row i is b's row i) and the skyline's rows.
func zsearchStore(prov dominance.Provider, enc *zorder.Encoder, fanout int, b point.Block, zc zorder.ZCol, tally *metrics.Tally) (*Store, []int32) {
	var st *Store
	if zc.Len() == b.Len() && zc.Words == enc.Words() {
		st = NewStoreWithZCol(enc, b, zc)
	} else {
		st = NewStore(enc, b)
	}
	return st, BuildStore(st.Under(prov), fanout, tally).SkylineRows()
}

// ZSearch is the slice entry point of the "ZS" algorithm: the skyline
// of pts in Z-order, as fresh points that share nothing with pts.
func ZSearch(enc *zorder.Encoder, fanout int, pts []point.Point, tally *metrics.Tally) []point.Point {
	return ZSearchBlock(enc, fanout, point.BlockOf(enc.Dims(), pts), tally).Points()
}
