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
//     dominance-count walks and a progressive Z-search; and
//   - ZSearchBlockUnder: Z-search under any dominance provider, with
//     each grid-level cut gated on the capability that keeps it sound.
//
// All region-level pruning uses the conservative grid tests of package
// zorder, so results are exact with respect to the original float
// coordinates (see DESIGN.md §5).
package zbtree

import (
	"fmt"
	"math"
	"sort"

	"zskyline/internal/metrics"
	"zskyline/internal/point"
	"zskyline/internal/zorder"
)

// DefaultFanout is the node capacity used when callers pass 0.
const DefaultFanout = 16

// Store is the shared columnar backing of a BlockTree: the flat point
// block, its Z-address column, the rows' grid coordinates and their
// packed lanes (lanes.go), all stride-indexed by row. Trees built over
// the same Store reference rows by index instead of owning Entry
// copies, which is what lets the pipeline encode each point's
// Z-address exactly once per query and merge candidate sets without
// rematerializing them.
type Store struct {
	enc   *zorder.Encoder
	blk   point.Block
	zc    zorder.ZCol
	grid  []uint32 // Dims() stride per row, quantized once at store build
	lanes []uint64 // laneWords(Dims()) stride per row, packed from grid
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

// Z returns the Z-address of row i (zero-copy view).
func (st *Store) Z(i int32) zorder.ZAddr { return st.zc.At(int(i)) }

// CompactRows copies the given rows out into a fresh block and
// Z-column, so results never pin the (potentially much larger) input
// arenas.
func (st *Store) CompactRows(rows []int32) (point.Block, zorder.ZCol) {
	blk := point.Block{Dims: st.blk.Dims}
	zc := zorder.ZCol{Words: st.zc.Words}
	if len(rows) == 0 {
		return blk, zc
	}
	blk.Data = make([]float64, 0, len(rows)*st.blk.Dims)
	zc.Data = make([]uint64, 0, len(rows)*st.zc.Words)
	for _, r := range rows {
		blk.Data = append(blk.Data, st.Row(r)...)
		zc.AppendRow(st.zc, int(r))
	}
	return blk, zc
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
	tally  *metrics.Tally
	nodes  []bnode
	// Box corner arenas, Dims() stride per node id, and the box's min
	// corner packed into lanes, laneWords(Dims()) stride per node id.
	regMin, regMax []uint32
	minLanes       []uint64
	root           int32 // -1 when empty
	last           int32 // the largest row appended or built; Append's order check
}

// NewBlockTree returns an empty tree over st. fanout <= 0 selects
// DefaultFanout; tally may be nil.
func NewBlockTree(st *Store, fanout int, tally *metrics.Tally) *BlockTree {
	if fanout <= 0 {
		fanout = DefaultFanout
	}
	if fanout < 2 {
		fanout = 2
	}
	return &BlockTree{st: st, fanout: fanout, tally: tally, root: -1}
}

// newNode appends a zeroed node with an empty box to the slab, growing
// the box arenas in tandem, and returns its id. Callers must re-index
// t.nodes after calling (the slab may move).
func (t *BlockTree) newNode() int32 {
	id := int32(len(t.nodes))
	t.nodes = append(t.nodes, bnode{})
	d := t.st.enc.Dims()
	for i := 0; i < d; i++ {
		t.regMin = append(t.regMin, math.MaxUint32)
	}
	t.regMax = append(t.regMax, make([]uint32, d)...)
	t.minLanes = append(t.minLanes, make([]uint64, laneWords(d))...)
	return id
}

// region returns node n's box as views into the corner arenas: it
// holds every row of the subtree, all any region test assumes.
func (t *BlockTree) region(n int32) zorder.Region {
	d := t.st.enc.Dims()
	lo := int(n) * d
	return zorder.Region{MinG: t.regMin[lo : lo+d : lo+d], MaxG: t.regMax[lo : lo+d : lo+d]}
}

// boxLanes returns node n's box min corner in lanes (a view).
func (t *BlockTree) boxLanes(n int32) []uint64 {
	lw := laneWords(t.st.enc.Dims())
	lo := int(n) * lw
	return t.minLanes[lo : lo+lw : lo+lw]
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
// It takes ownership of rows and sorts it in place; the slice becomes
// the leaf-row arena.
func BuildRows(st *Store, fanout int, rows []int32, tally *metrics.Tally) *BlockTree {
	t := NewBlockTree(st, fanout, tally)
	if len(rows) == 0 {
		return t
	}
	sort.SliceStable(rows, func(i, j int) bool {
		return st.zc.Compare(int(rows[i]), int(rows[j])) < 0
	})
	// Leaves: subslices of the sorted permutation arena.
	nLeaves := (len(rows) + t.fanout - 1) / t.fanout
	nNodes, d := nLeaves+nLeaves/(t.fanout-1)+2, st.enc.Dims()
	t.nodes = make([]bnode, 0, nNodes)
	t.regMin, t.regMax = make([]uint32, 0, nNodes*d), make([]uint32, 0, nNodes*d)
	t.minLanes = make([]uint64, 0, nNodes*laneWords(d))
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

// probeCount tallies the tests of one top-level probe. Probes of one
// tree run concurrently and share its tally, so they count on their own
// stack and add to the shared counters once, at the end — an atomic add
// per visited node is a cache line bouncing between cores.
type probeCount struct{ region, dom int64 }

func (t *BlockTree) flush(c *probeCount) {
	if c.region != 0 {
		t.tally.AddRegionTests(c.region)
	}
	if c.dom != 0 {
		t.tally.AddDominanceTests(c.dom)
	}
}

// DominatesRow reports whether some stored row strictly dominates row
// (exact float semantics; grid and lane tests only prune).
func (t *BlockTree) DominatesRow(row int32) bool {
	return t.root >= 0 && t.dominates(t.st.Grid(row), t.st.rowLanes(row), t.st.Row(row))
}

// DominatesPoint is DominatesRow for a point outside the store: g must
// be p's grid coordinates under the store's encoder. It only reads the
// tree, so concurrent probes of one tree are safe.
func (t *BlockTree) DominatesPoint(g []uint32, p point.Point) bool {
	if t.root < 0 || len(p) != t.st.blk.Dims {
		return false
	}
	if zorder.GridStrictDominates(t.region(t.root).MaxG, g) {
		// The root's own test: a far-off point needs no lanes.
		t.flush(&probeCount{region: 1})
		return true
	}
	var buf [8]uint64 // d <= 32 packs on the stack
	pl := buf[:min(laneWords(len(g)), len(buf))]
	if len(pl) < laneWords(len(g)) {
		pl = make([]uint64, laneWords(len(g)))
	}
	packLanes(pl, g, laneShift(t.st.enc.Bits()))
	return t.dominates(g, pl, p)
}

// dominates probes from the root; g and pl are p's grid and lanes.
func (t *BlockTree) dominates(g []uint32, pl []uint64, p point.Point) bool {
	var c probeCount
	found := t.dominatesPoint(&c, t.root, g, pl, p)
	t.flush(&c)
	return found
}

func (t *BlockTree) dominatesPoint(c *probeCount, n int32, g []uint32, pl []uint64, p point.Point) bool {
	c.region++
	// The box's min corner in lanes: RegionCannotDominatePointGrid at
	// 15 bits per dimension, two word operations at d = 8.
	if lanesSomeGreater(t.boxLanes(n), pl) {
		return false
	}
	if zorder.GridStrictDominates(t.region(n).MaxG, g) {
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
	// The leaf scan is point.Dominates(row, p) over the block's flat
	// array, after the lanes reject what they can: no row view, no
	// call, four coordinates to a branch.
	c.dom += int64(len(nd.rows))
	data, d := t.st.blk.Data, len(p)
	lanes, lw := t.st.lanes, len(pl)
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
// dominates every float point that could lie in region r.
func (t *BlockTree) DominatesAllOfRegion(r zorder.Region) bool {
	if t.root < 0 {
		return false
	}
	var c probeCount
	found := t.dominatesRegion(&c, t.root, r)
	t.flush(&c)
	return found
}

func (t *BlockTree) dominatesRegion(c *probeCount, n int32, r zorder.Region) bool {
	c.region++
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

// RemoveDominatedBy deletes every stored row strictly dominated by row
// and returns how many were removed. Interior regions are left as-is
// (they remain valid supersets), matching the paper's strategy of
// re-balancing once at the end of a merge.
func (t *BlockTree) RemoveDominatedBy(row int32) int {
	if t.root < 0 {
		return 0
	}
	var c probeCount
	removed := t.removeDominated(&c, t.root, t.st.Grid(row), t.st.rowLanes(row), row)
	t.flush(&c)
	if t.nodes[t.root].count == 0 {
		t.root = -1
	}
	return removed
}

// removeDominated is RemoveDominatedBy under node n; g and rl are row's
// grid and lanes.
func (t *BlockTree) removeDominated(c *probeCount, n int32, g []uint32, rl []uint64, row int32) int {
	c.region++
	if zorder.GridSomeGreater(g, t.region(n).MaxG) {
		return 0
	}
	nd := &t.nodes[n]
	if nd.isLeaf() {
		c.dom += int64(len(nd.rows))
		kept := nd.rows[:0]
		for _, e := range nd.rows {
			// Row cannot dominate e when one of its lanes exceeds e's.
			if lanesSomeGreater(rl, t.st.rowLanes(e)) || !point.DominatesRows(t.st.blk, int(row), t.st.blk, int(e)) {
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
		if zorder.PointGridDominatesRegion(g, t.region(kid)) {
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

// SkylineRows runs Z-search over the tree and returns the skyline's
// row indices in Z-order: a depth-first traversal in Z-order that
// keeps the running skyline in a second BlockTree over the same store.
// Because Z-order is a topological order for dominance (a dominator's
// Z-address is never larger than its dominatee's), each row only needs
// to be tested against already-accepted rows; the only exception is
// grid-level ties, which the per-acceptance RemoveDominatedBy sweep
// repairs. The result is the exact skyline of the stored float points.
func (t *BlockTree) SkylineRows() []int32 {
	sky := NewBlockTree(t.st, t.fanout, t.tally)
	t.zsearch(t.root, sky)
	return sky.Rows()
}

func (t *BlockTree) zsearch(n int32, sky *BlockTree) {
	if n < 0 {
		return
	}
	if sky.DominatesAllOfRegion(t.region(n)) {
		return
	}
	if t.nodes[n].isLeaf() {
		for _, e := range t.nodes[n].rows {
			if sky.DominatesRow(e) {
				continue
			}
			sky.RemoveDominatedBy(e)
			sky.Append(e)
		}
		return
	}
	for _, c := range t.nodes[n].kids {
		t.zsearch(c, sky)
	}
}

// incomparableWith is a conservative, depth-bounded check that no
// stored row and no float point of region r can dominate one another,
// so Z-merge can take a whole src branch without opening it.
func (t *BlockTree) incomparableWith(r zorder.Region, depth int) bool {
	if t.root < 0 {
		return false
	}
	var c probeCount
	inc := t.incomparable(&c, t.root, r, depth)
	t.flush(&c)
	return inc
}

func (t *BlockTree) incomparable(c *probeCount, n int32, r zorder.Region, depth int) bool {
	c.region++
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
	var stash, survivors []int32
	queue := []int32{src.root}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		if sky.DominatesAllOfRegion(src.region(n)) {
			continue
		}
		if sky.incomparableWith(src.region(n), 2) {
			stash = src.appendRows(n, stash)
			continue
		}
		nd := &src.nodes[n]
		if !nd.isLeaf() {
			queue = append(queue, nd.kids...)
			continue
		}
		for _, e := range nd.rows {
			if sky.DominatesRow(e) {
				continue
			}
			sky.RemoveDominatedBy(e)
			survivors = append(survivors, e)
		}
	}
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
	if b.Len() == 0 {
		return point.Block{Dims: b.Dims}, zorder.ZCol{Words: enc.Words()}
	}
	var st *Store
	if zc.Len() == b.Len() && zc.Words == enc.Words() {
		st = NewStoreWithZCol(enc, b, zc)
	} else {
		st = NewStore(enc, b)
	}
	rows := BuildStore(st, fanout, tally).SkylineRows()
	return st.CompactRows(rows)
}

// ZSearch is the slice entry point of the "ZS" algorithm: the skyline
// of pts in Z-order, as fresh points that share nothing with pts.
func ZSearch(enc *zorder.Encoder, fanout int, pts []point.Point, tally *metrics.Tally) []point.Point {
	return ZSearchBlock(enc, fanout, point.BlockOf(enc.Dims(), pts), tally).Points()
}
