package plan

import (
	"context"
	"fmt"

	"zskyline/internal/dominance"
	"zskyline/internal/grouping"
	"zskyline/internal/metrics"
	"zskyline/internal/partition"
	"zskyline/internal/point"
	"zskyline/internal/seq"
	"zskyline/internal/zbtree"
	"zskyline/internal/zorder"
)

// Rule is the learned phase-1 artifact: how to route a point to its
// group (or drop it), how to compute a group's local skyline, and how
// to merge candidate groups. One Rule drives every substrate and
// serializes its reduce half to RuleData for broadcast.
type Rule struct {
	local     LocalAlgo
	merge     MergeAlgo
	fanout    int
	filterOff bool

	// prov is the dominance relation every kernel of this rule computes
	// under (never nil; Pareto by default), with its capability flags
	// cached. Learn disables the SZB-tree filter and dominance-based
	// partition pruning when the relation does not transfer Pareto
	// eliminations (ParetoImplies false), and the driver appends a
	// full-input verification pass when the relation is not
	// transitive.
	prov dominance.Provider
	caps dominance.Caps

	// enc quantizes over the data bounds. Every strategy's local
	// Z-search, candidate columns and merge run under it, so a store
	// never mixes addresses from two grids.
	enc *zorder.Encoder

	// assignFn routes for the non-Z baselines (Grid / Angle / Random).
	assignFn func(p point.Point) (gid int, ok bool)
	// pivots + groupOf route for the Z-order strategies: binary-search
	// the Z-address into a partition, then map partition -> group.
	pivots  []zorder.ZAddr
	groupOf map[int]int
	// szb is Algorithm 3's SZB filter: a ZB-tree over the repBudget
	// sample-skyline rows of largest dominance volume; nil when the
	// strategy or the relation does not filter. top is the componentwise
	// max of those rows in floats, the filter's float exit: a row above
	// it in every coordinate is strictly dominated by every one of them.
	// Nil when szb is nil or holds no row.
	szb *zbtree.BlockTree
	top []float64

	dims       int
	bits       int
	mins, maxs []float64

	groups  int
	parts   int
	pruned  int
	skySize int
}

// Learn builds the routing rule from the sample — phase 1 (§5.1) for
// all six strategies. mins/maxs are the dataset bounds; dims its width.
func Learn(spec *Spec, dims int, mins, maxs []float64, smp []point.Point, tally *metrics.Tally) (*Rule, error) {
	enc, err := zorder.NewEncoder(dims, spec.Bits, mins, maxs)
	if err != nil {
		return nil, err
	}
	prov, err := spec.Dominance.Provider()
	if err != nil {
		return nil, err
	}
	r := &Rule{
		local:     spec.Local,
		merge:     spec.Merge,
		fanout:    spec.fanout(),
		filterOff: spec.DisableSZBFilter,
		prov:      prov,
		caps:      prov.Caps(),
		enc:       enc,
		dims:      dims,
		bits:      spec.Bits,
		mins:      mins,
		maxs:      maxs,
	}
	// The SZB-tree mapper filter eliminates points the Pareto sample
	// skyline dominates; that elimination transfers to the provider's
	// relation only when Pareto dominance implies provider dominance.
	if !r.caps.ParetoImplies {
		r.filterOff = true
	}

	switch spec.Strategy {
	case Grid:
		g, err := partition.NewGrid(smp, spec.M)
		if err != nil {
			return nil, err
		}
		r.assignFn = func(p point.Point) (int, bool) { return g.Assign(p), true }
		r.groups, r.parts = g.N(), g.N()
		return r, nil
	case Angle:
		a, err := partition.NewAngle(smp, spec.M)
		if err != nil {
			return nil, err
		}
		r.assignFn = func(p point.Point) (int, bool) { return a.Assign(p), true }
		r.groups, r.parts = a.N(), a.N()
		return r, nil
	case Random:
		rp, err := partition.NewRandom(spec.M)
		if err != nil {
			return nil, err
		}
		r.assignFn = func(p point.Point) (int, bool) { return rp.Assign(p), true }
		r.groups, r.parts = rp.N(), rp.N()
		return r, nil
	case NaiveZ, ZHG, ZDG:
	default:
		return nil, fmt.Errorf("plan: unknown strategy %v", spec.Strategy)
	}

	// Z-order strategies.
	parts := spec.M
	if spec.Strategy != NaiveZ {
		parts = spec.M * spec.Delta
	}
	// The sample is encoded and sorted into Z-order once: its skyline
	// search finds its rows in order, and the pivots and every
	// partition statistic read its column and grid.
	// Naive-Z is the bare §4.1 partitioner: pivots only, no sample
	// skyline filter, no grouping. Only the grouped strategies run
	// Algorithm 3's SZB-tree mapper filter.
	s := partition.EncodeSample(enc, smp, nil)
	s.SkyZ = r.sampleSkyline(s.Rows, s.Z, spec.Strategy != NaiveZ && !r.filterOff, tally)
	zc, err := partition.NewZCurve(enc, s, parts)
	if err != nil {
		return nil, err
	}

	var pg *grouping.PGMap
	switch spec.Strategy {
	case NaiveZ:
		pg = grouping.Identity(zc.Infos())
	case ZHG:
		zc = zc.Redistribute(r.skySize / spec.M)
		pg, err = grouping.Heuristic(zc.Infos(), spec.M)
	case ZDG:
		zc = zc.Redistribute(r.skySize / spec.M)
		if r.caps.ParetoImplies {
			pg, err = grouping.Dominance(enc, zc.Infos(), spec.M)
		} else {
			// Dominance-based grouping prunes partitions whose every
			// point is Pareto-dominated — unsound when the provider
			// keeps some Pareto-dominated points. Degrade to heuristic
			// grouping, which only balances and never prunes.
			pg, err = grouping.Heuristic(zc.Infos(), spec.M)
		}
	}
	if err != nil {
		return nil, err
	}
	r.pivots = zc.Pivots()
	r.groupOf = pg.Assign
	r.groups = pg.Groups
	r.parts = zc.N()
	r.pruned = len(pg.Pruned)
	return r, nil
}

// sampleSkyline computes the skyline of the sample blk, whose
// Z-address column is zc — the one Z-search of phase 1, counted in
// tally — and returns the skyline's Z-address column. When index is
// set it builds the SZB-tree of Algorithm 3 over the skyline's
// repBudget representatives, reusing the search's compacted rows and
// column as the tree's store. Every representative is an input row, so
// whatever it dominates is off the skyline; the whole skyline (most of
// the sample on anti-correlated data) would drop a few more rows for
// many more tests per probe. The caller's partitioning reads the whole
// skyline. It also records the representatives' float max corner, top.
// Sample and tree stay on the slab path, so learning costs a handful of
// allocations whatever the sample size.
func (r *Rule) sampleSkyline(blk point.Block, zc zorder.ZCol, index bool, tally *metrics.Tally) zorder.ZCol {
	sky, skyZ := zbtree.ZSearchGroup(r.enc, r.fanout, blk, zc, tally)
	if index {
		st := zbtree.NewStoreWithZCol(r.enc, sky, skyZ)
		reps := st.Representatives(0, int32(st.Len()), repBudget)
		if len(reps) > 0 {
			r.top = st.Row(reps[0]).Clone()
			for _, row := range reps[1:] {
				for k, v := range st.Row(row) {
					r.top[k] = max(r.top[k], v)
				}
			}
		}
		r.szb = zbtree.BuildRows(st, r.fanout, reps, nil)
	}
	r.skySize = sky.Len()
	return skyZ
}

// Groups returns the number of groups (= phase-2 reducers).
func (r *Rule) Groups() int { return r.groups }

// SampleSkySize returns the sample-skyline size (0 for the baselines).
func (r *Rule) SampleSkySize() int { return r.skySize }

// Encoder returns the rule's bounds encoder.
func (r *Rule) Encoder() *zorder.Encoder { return r.enc }

// Provider returns the dominance relation the rule's kernels compute
// under (never nil).
func (r *Rule) Provider() dominance.Provider { return r.prov }

// pareto reports whether the rule runs under the classic relation —
// the zero-overhead fast path every kernel branches on once.
func (r *Rule) pareto() bool { return dominance.IsPareto(r.prov) }

// router is per-task routing state: one grid/Z-address scratch pair
// reused across every point the task routes, so a map task pays zero
// allocations per point, and the count of the task's SZB probes, which
// the task adds to the shared tally once, when it ends. A Rule is
// shared and immutable after Learn, so neither can live on it — each
// task takes its own router.
type router struct {
	r     *Rule
	g     []uint32
	z     zorder.ZAddr
	tests metrics.Count
}

func (r *Rule) newRouter() router {
	rt := router{r: r}
	if r.assignFn == nil {
		rt.g = make([]uint32, r.enc.Dims())
		rt.z = make(zorder.ZAddr, r.enc.Words())
	}
	return rt
}

// route maps a point to its group without allocating; ok is false when
// the point is dropped. A point above the representatives' float corner
// in every coordinate leaves first, for one region test and without a
// grid: on correlated data that is most of the input. Every other point
// is quantized and probes the SZB tree. After a Z-routed accept, rt.z
// holds the encoded address until the next call.
func (rt *router) route(p point.Point) (gid int, ok bool) {
	r := rt.r
	if r.assignFn != nil {
		return r.assignFn(p)
	}
	if r.top != nil && above(p, r.top) {
		rt.tests.RegionTests++
		return 0, false
	}
	r.enc.GridInto(rt.g, p)
	if r.szb != nil && r.szb.DominatesPoint(&rt.tests, rt.g, p) {
		return 0, false
	}
	r.enc.EncodeGridInto(rt.z, rt.g)
	gid, ok = r.groupOf[r.partitionOf(rt.z)]
	return gid, ok
}

// above reports whether p exceeds top strictly in every coordinate,
// leaving at the first that it does not.
func above(p point.Point, top []float64) bool {
	p = p[:len(top)]
	for k, t := range top {
		if !(p[k] > t) {
			return false
		}
	}
	return true
}

// partitionOf binary-searches the Z-address into its partition
// (Algorithm 3's searchPT step).
func (r *Rule) partitionOf(a zorder.ZAddr) int {
	lo, hi := 0, len(r.pivots)
	for lo < hi {
		mid := (lo + hi) / 2
		if zorder.Compare(a, r.pivots[mid]) < 0 {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// LocalSkylineGroup is the group's exact skyline under the rule's
// relation, copied out as Candidates of the rows LocalSkylineRows keeps.
// The pipeline's reduce stops at the positions and phase 3 gathers the
// candidates itself; this copy is for callers that hold a skyline apart
// from its group: a bench's stage replay, a window's rebuild, a shard's
// range skyline.
func (r *Rule) LocalSkylineGroup(g Group, tally *metrics.Tally) Group {
	return r.Candidates(g, r.LocalSkylineRows(g, tally))
}

// LocalSkylineRows runs the configured local kernel over g under the
// rule's relation, reusing the group's Z-address column when its shape
// matches the rule's bounds encoder, and returns the group's exact
// skyline as positions into g, in the kernel's output order. Only a
// non-transitive relation's close copies rows, and none leaves, so a
// reducer that answers a caller holding g can answer with the positions
// alone.
func (r *Rule) LocalSkylineRows(g Group, tally *metrics.Tally) []int32 {
	n := g.Block.Len()
	if n == 0 {
		return nil
	}
	if r.local != ZS {
		return seq.SBRows(r.prov, g.Block, tally)
	}
	zc := g.ZCol
	if zc.Len() != n || zc.Words != r.enc.Words() {
		zc = zorder.ZCol{}
	}
	rows := zbtree.ZSearchRowsUnder(r.prov, r.enc, r.fanout, g.Block, zc, tally)
	if !r.caps.Transitive {
		// The walk keeps rows that only a row it dropped dominates; the
		// input closes it, as a window's rebuild needs an exact skyline.
		kept := seq.FilterRows(r.prov, g.Block.Select(rows), g.Block, tally)
		for i, k := range kept {
			kept[i] = rows[k]
		}
		rows = kept
	}
	return rows
}

// Candidates copies rows of g (positions LocalSkylineRows returned) out
// as a candidate group of its own, for callers that keep it apart from
// g; phase 3 gathers the same rows straight into its store instead.
// Under Pareto they carry their Z-address column, selected from g's
// when g carries the rule's own and encoded otherwise, unless the merge
// phase is SB, which has no use for one; under any other relation they
// travel without one, like the map's survivors.
func (r *Rule) Candidates(g Group, rows []int32) Group {
	var enc *zorder.Encoder
	if r.merge != MergeSB && r.pareto() {
		enc = r.enc
	} else {
		g.ZCol = zorder.ZCol{}
	}
	out, _ := Gather([]Part{Pick(g, rows)}, enc)
	return out
}

// MapBlock is phase 2's map over one block: see mapRows.
func (r *Rule) MapBlock(b point.Block, tally *metrics.Tally) MapOutput {
	return r.mapRows(context.Background(), b.Len(), b.Row, tally)
}

// cancelStride is how many rows a map task handles between two looks
// at its context.
const cancelStride = 1024

// firstChunk is the most rows a map task's first list chunk holds: a
// task over correlated rows, which routes a handful of them, allocates
// no more than that.
const firstChunk = 256

// mapRows is phase 2's map task over n rows, wherever they lie: filter
// each row against the SZB-tree and route the survivors to their groups.
// There is no combine: the reduce computes each group's skyline over
// the union anyway. The task copies no row: it lists the routed rows'
// positions and groups, which Shuffle copies from row, and routing
// reuses one router's scratch across all rows, so the task allocates
// only its lists. They fill chunks that are never copied: the first
// holds firstChunk rows, each later one half the rows the chunks before
// it hold (firstChunk at least), and none more than the task has rows
// left, so only the last chunk has room left over. On the Z-order paths
// under Pareto the address computed for routing is listed beside its
// row, so it is encoded exactly once per query: shuffle, reduce, and
// merge reuse it. Once ctx is done the task stops mid-way and returns
// nothing; the executor reports ctx.Err().
func (r *Rule) mapRows(ctx context.Context, n int, row func(i int) point.Point, tally *metrics.Tally) MapOutput {
	// Under a non-Pareto relation survivors travel without a column; the
	// reduce encodes what its store needs.
	w := 0
	if r.assignFn == nil && r.pareto() {
		w = r.enc.Words()
	}
	rt := r.newRouter()
	out := MapOutput{words: w, groups: r.groups, dims: r.dims, row: row}
	held := 0 // rows in the full chunks
	for i := 0; i < n; i++ {
		if i%cancelStride == 0 && ctx.Err() != nil {
			return MapOutput{}
		}
		p := row(i)
		if len(p) != r.dims {
			panic(fmt.Sprintf("plan: map row has %d dims, want %d", len(p), r.dims))
		}
		gid, ok := rt.route(p)
		if !ok {
			out.Filtered++
			continue
		}
		if t := &out.tail; len(t.rows) == cap(t.rows) {
			if len(t.rows) > 0 {
				out.lists = append(out.lists, *t)
				held += len(t.rows)
			}
			*t = newRouted(min(max(held/2, firstChunk), n-i), w)
		}
		t := &out.tail
		t.rows = append(t.rows, int32(i))
		t.gids = append(t.gids, int32(gid))
		if w > 0 {
			t.z.AppendAddr(rt.z)
		}
	}
	tally.AddPointsPruned(out.Filtered)
	tally.Add(rt.tests)
	return out
}

// mergeGroupsZ is one merge task over candidate parts, in the given
// order: Z-merge one ZB-tree per part (Algorithm 4), or the ZS / SB
// recompute baselines. For the Z-order merges it gathers the parts'
// rows and Z-addresses into one shared columnar store (encoding only
// rows whose groups carry no column), builds index-based ZB-trees over
// row ranges of that store, and Z-merges (or Z-searches) without
// materializing a single per-point entry. The result carries its own
// column so a later merge reuses its addresses. The store carries the
// rule's relation: the result is the union's skyline under a transitive
// relation and a superset of it otherwise, which the pipeline's final
// verification closes. Phase 3 runs it for the recompute merges. Its
// Z-merge branch is the serial Algorithm-4 reference that only tests
// reach: phase 3 Z-merges as a probe merge, and Fold.Add calls zmerge
// directly.
func (r *Rule) mergeGroupsZ(parts []Part, tally *metrics.Tally) Group {
	out := Group{Block: point.Block{Dims: r.dims}}
	if partsLen(parts) == 0 {
		return out
	}
	if r.merge == MergeSB {
		// The sort-filter reads no address: the rows gather without one.
		bare := make([]Part, len(parts))
		for i, p := range parts {
			bare[i] = Part{Group: Group{Block: p.Group.Block}, Rows: p.Rows}
		}
		all, _ := Gather(bare, nil)
		out.Block = all.Block.Select(seq.SBRows(r.prov, all.Block, tally))
		return out
	}
	st, ranges := r.candidateStore(parts)
	var rows []int32
	if r.merge == MergeZS {
		rows = zbtree.BuildStore(st, r.fanout, tally).SkylineRows()
	} else {
		rows = r.zmerge(st, ranges, tally)
	}
	out.Block, out.ZCol = st.CompactRows(rows)
	return out
}

// zmerge folds Z-merge (Algorithm 4) over one ZB-tree per range of st,
// each range a candidate skyline, and returns the surviving store rows
// in Z-order.
func (r *Rule) zmerge(st *zbtree.Store, ranges [][2]int32, tally *metrics.Tally) []int32 {
	acc := zbtree.NewBlockTree(st, r.fanout, tally)
	for _, rg := range ranges {
		acc = zbtree.MergeBlock(acc, zbtree.BuildRows(st, r.fanout, rowRange(rg), tally))
	}
	return acc.Rows()
}

// candidateStore gathers candidate parts into one shared columnar store
// under the rule's relation, every row with its Z-address (see Gather).
// ranges holds each part's [lo,hi) store rows.
func (r *Rule) candidateStore(parts []Part) (*zbtree.Store, [][2]int32) {
	g, ranges := Gather(parts, r.enc)
	return zbtree.NewStoreWithZCol(r.enc, g.Block, g.ZCol).Under(r.prov), ranges
}

// rowRange lists the store rows of one [lo,hi) range, for BuildRows to
// take ownership of.
func rowRange(rg [2]int32) []int32 {
	rows := make([]int32, 0, rg[1]-rg[0])
	for i := rg[0]; i < rg[1]; i++ {
		rows = append(rows, i)
	}
	return rows
}

// RuleData is the gob-serializable reduce half of a rule — what a
// coordinator broadcasts to remote workers (the paper's
// distributed-cache step). Workers only reduce and merge: the
// coordinator filters and routes every row itself, so nothing only the
// map reads (pivots, the partition->group map, the sample skyline)
// travels.
type RuleData struct {
	Dims, Bits int
	Mins, Maxs []float64
	Fanout     int
	Local      LocalAlgo
	Merge      MergeAlgo
	// Dominance is the wire descriptor of the rule's dominance
	// provider; the zero value means classic Pareto, so payloads from
	// peers that predate providers keep their meaning.
	Dominance dominance.Descriptor
}

// Data serializes the rule's reduce half: the bounds encoder, the
// kernels and the relation, which every strategy's reduce and merge run
// under alike.
func (r *Rule) Data() *RuleData {
	return &RuleData{
		Dims:      r.dims,
		Bits:      r.bits,
		Mins:      r.mins,
		Maxs:      r.maxs,
		Fanout:    r.fanout,
		Local:     r.local,
		Merge:     r.merge,
		Dominance: r.prov.Descriptor(),
	}
}

// FromData compiles a broadcast rule into a reduce-and-merge rule: its
// local skylines and merges equal those of the rule it came from, and
// it routes nothing.
func FromData(rd *RuleData) (*Rule, error) {
	enc, err := zorder.NewEncoder(rd.Dims, rd.Bits, rd.Mins, rd.Maxs)
	if err != nil {
		return nil, err
	}
	prov, err := rd.Dominance.Provider()
	if err != nil {
		return nil, err
	}
	r := &Rule{
		local:  rd.Local,
		merge:  rd.Merge,
		fanout: rd.Fanout,
		prov:   prov,
		caps:   prov.Caps(),
		enc:    enc,
		dims:   rd.Dims,
		bits:   rd.Bits,
		mins:   rd.Mins,
		maxs:   rd.Maxs,
	}
	if r.fanout <= 0 {
		r.fanout = zbtree.DefaultFanout
	}
	return r, nil
}
