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
// to merge candidate groups. One Rule drives every substrate; the
// Z-order variants additionally serialize their reduce half to RuleData
// for broadcast.
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

	// enc quantizes over the data bounds; merge always uses it. localEnc
	// is the phase-2 local-skyline encoder: the same bounds encoder for
	// Z-order strategies, a unit-box encoder for the baselines (which
	// learn no bounds encoder of their own).
	enc      *zorder.Encoder
	localEnc *zorder.Encoder

	// assignFn routes for the non-Z baselines (Grid / Angle / Random).
	assignFn func(p point.Point) (gid int, ok bool)
	// pivots + groupOf route for the Z-order strategies: binary-search
	// the Z-address into a partition, then map partition -> group.
	pivots  []zorder.ZAddr
	groupOf map[int]int
	// positional marks the Positional strategy: no routing state, map
	// task i's survivors are group i.
	positional bool
	// szb is the sample-skyline ZB-tree of Algorithm 3; nil when the
	// strategy or the relation does not filter.
	szb *zbtree.BlockTree
	// sampleSize is |sample|; with skySize it predicts the filter's
	// survivor count (see survivorsOf).
	sampleSize int

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
		localEnc:  enc,
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
		return r.withUnitLocalEncoder()
	case Angle:
		a, err := partition.NewAngle(smp, spec.M)
		if err != nil {
			return nil, err
		}
		r.assignFn = func(p point.Point) (int, bool) { return a.Assign(p), true }
		r.groups, r.parts = a.N(), a.N()
		return r.withUnitLocalEncoder()
	case Random:
		rp, err := partition.NewRandom(spec.M)
		if err != nil {
			return nil, err
		}
		r.assignFn = func(p point.Point) (int, bool) { return rp.Assign(p), true }
		r.groups, r.parts = rp.N(), rp.N()
		return r.withUnitLocalEncoder()
	case Positional:
		return r.learnPositional(spec, smp, tally), nil
	case NaiveZ, ZHG, ZDG:
	default:
		return nil, fmt.Errorf("plan: unknown strategy %v", spec.Strategy)
	}

	// Z-order strategies.
	parts := spec.M
	if spec.Strategy != NaiveZ {
		parts = spec.M * spec.Delta
	}
	// Naive-Z is the bare §4.1 partitioner: pivots only, no sample
	// skyline filter, no grouping. Only the grouped strategies run
	// Algorithm 3's SZB-tree mapper filter.
	skyPts := r.sampleSkyline(smp, spec.Strategy != NaiveZ && !r.filterOff, tally).Points()
	zc, err := partition.NewZCurve(enc, smp, skyPts, parts)
	if err != nil {
		return nil, err
	}

	var pg *grouping.PGMap
	switch spec.Strategy {
	case NaiveZ:
		pg = grouping.Identity(zc.Infos())
	case ZHG:
		zc = zc.Redistribute(smp, skyPts, sconsOf(skyPts, spec.M))
		pg, err = grouping.Heuristic(zc.Infos(), spec.M)
	case ZDG:
		zc = zc.Redistribute(smp, skyPts, sconsOf(skyPts, spec.M))
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

// sconsOf is the redistribute() skyline-per-partition cap of
// Algorithms 1 and 2.
func sconsOf(skyPts []point.Point, m int) int {
	scons := len(skyPts) / m
	if scons < 1 {
		scons = 1
	}
	return scons
}

// withUnitLocalEncoder swaps the local-skyline encoder for a unit-box
// one. The baselines learn no bounds encoder, and exact correctness
// does not depend on bounds (clamping only weakens pruning), so the
// unit box — where generated data lives — is a safe default.
func (r *Rule) withUnitLocalEncoder() (*Rule, error) {
	u, err := zorder.NewUnitEncoder(r.dims, r.bits)
	if err != nil {
		return nil, err
	}
	r.localEnc = u
	return r, nil
}

// learnPositional finishes Learn for the Positional strategy: spec.M
// groups at most (the driver reports how many map tasks the input
// actually filled), and — unless the relation or the spec turns the
// filter off — the sample skyline indexed as the SZB-tree every map
// task probes.
func (r *Rule) learnPositional(spec *Spec, smp []point.Point, tally *metrics.Tally) *Rule {
	r.positional = true
	r.groups, r.parts = spec.M, spec.M
	if !r.filterOff && len(smp) > 0 {
		r.sampleSkyline(smp, true, tally)
	}
	return r
}

// sampleSkyline computes the sample's skyline — the one Z-search of
// phase 1, counted in tally — and, when index is set, builds the
// SZB-tree of Algorithm 3 over it, reusing the search's compacted rows
// and Z-column as the tree's store. Sample and tree stay on the slab
// path, so learning costs a handful of allocations whatever the sample
// size.
func (r *Rule) sampleSkyline(smp []point.Point, index bool, tally *metrics.Tally) point.Block {
	sky, skyZ := zbtree.ZSearchGroup(r.enc, r.fanout, point.BlockOf(r.dims, smp), zorder.ZCol{}, tally)
	if index {
		r.szb = zbtree.BuildStore(zbtree.NewStoreWithZCol(r.enc, sky, skyZ), r.fanout, tally)
	}
	r.skySize, r.sampleSize = sky.Len(), len(smp)
	return sky
}

// Groups returns the number of groups (= phase-2 reducers).
func (r *Rule) Groups() int { return r.groups }

// Partitions returns the partition count before grouping.
func (r *Rule) Partitions() int { return r.parts }

// PrunedPartitions returns how many partitions grouping dropped as
// fully dominated.
func (r *Rule) PrunedPartitions() int { return r.pruned }

// SampleSkySize returns the sample-skyline size (0 for the baselines).
func (r *Rule) SampleSkySize() int { return r.skySize }

// Encoder returns the rule's bounds encoder.
func (r *Rule) Encoder() *zorder.Encoder { return r.enc }

// Provider returns the dominance relation the rule's kernels compute
// under (never nil).
func (r *Rule) Provider() dominance.Provider {
	if r.prov == nil {
		return dominance.Pareto{}
	}
	return r.prov
}

// pareto reports whether the rule runs under the classic relation —
// the zero-overhead fast path every kernel branches on once.
func (r *Rule) pareto() bool { return dominance.IsPareto(r.prov) }

// Route maps a point to its group; ok is false when the point is
// dropped (SZB-tree filtered, or routed to a pruned partition). A
// Positional rule groups by map task, which a single point cannot name:
// every survivor routes to group 0. This is the one-shot entry point;
// per-point loops hold a router, which reuses its quantization scratch
// across calls.
func (r *Rule) Route(p point.Point) (gid int, ok bool) {
	if r.assignFn != nil {
		return r.assignFn(p)
	}
	return r.newRouter().route(p)
}

// router is per-task routing state: one grid/Z-address scratch pair
// reused across every point the task routes, so a map task pays zero
// allocations per point. A Rule is shared and immutable after Learn, so
// the scratch cannot live on it — each task takes its own router.
type router struct {
	r *Rule
	g []uint32
	z zorder.ZAddr
}

func (r *Rule) newRouter() *router {
	rt := &router{r: r}
	if r.assignFn == nil {
		rt.g = make([]uint32, r.enc.Dims())
		rt.z = make(zorder.ZAddr, r.enc.Words())
	}
	return rt
}

// route maps a point to its group without allocating; ok is false when
// the point is dropped. After a Z-routed accept, rt.z holds the encoded
// address until the next call.
func (rt *router) route(p point.Point) (gid int, ok bool) {
	r := rt.r
	if r.assignFn != nil {
		return r.assignFn(p)
	}
	r.enc.GridInto(rt.g, p)
	if r.szb != nil && r.szb.DominatesPoint(rt.g, p) {
		return 0, false
	}
	r.enc.EncodeGridInto(rt.z, rt.g)
	if r.positional {
		return 0, true
	}
	gid, ok = r.groupOf[r.partitionOf(rt.z)]
	return gid, ok
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

// LocalSkylineGroup is phase 2's reduce on the encode-once path: it
// runs the configured local kernel over g, reusing the group's
// Z-address column when its shape matches the rule's bounds encoder,
// and returns candidates carrying their own column (unless the merge
// phase is SB, which has no use for one).
func (r *Rule) LocalSkylineGroup(g Group, tally *metrics.Tally) Group {
	out := Group{Gid: g.Gid, Block: point.Block{Dims: g.Block.Dims}}
	n := g.Block.Len()
	if n == 0 {
		return out
	}
	if !r.pareto() {
		// Non-Pareto relations run the capability-gated kernels; the
		// encode-once column is not carried (the provider merge path
		// re-derives what it needs). For non-transitive relations the
		// result is a candidate superset that the pipeline's final
		// verification pass closes.
		if r.local == ZS {
			out.Block = zbtree.ZSearchBlockUnder(r.prov, r.localEnc, r.fanout, g.Block, tally)
		} else {
			out.Block = dominance.SkylineBlock(r.prov, g.Block, tally)
		}
		return out
	}
	carryZ := r.merge != MergeSB
	if r.local == ZS {
		if g.ZCol.Len() == n && g.ZCol.Words == r.enc.Words() {
			// Encode-once: the column is bounds-encoded, so the kernel must
			// run under the bounds encoder to keep the store consistent. For
			// every rule that produces columns localEnc == enc anyway.
			out.Block, out.ZCol = zbtree.ZSearchGroup(r.enc, r.fanout, g.Block, g.ZCol, tally)
		} else {
			out.Block, out.ZCol = zbtree.ZSearchGroup(r.localEnc, r.fanout, g.Block, zorder.ZCol{}, tally)
			if r.localEnc != r.enc {
				// Wrong provenance for the merge phase: the column was built
				// by the unit-box local encoder.
				out.ZCol = zorder.ZCol{}
			}
		}
		if !carryZ {
			out.ZCol = zorder.ZCol{}
		} else if out.ZCol.Len() != out.Block.Len() {
			out.ZCol = r.enc.EncodeBlock(zorder.ZCol{}, out.Block)
		}
		return out
	}
	out.Block = seq.SBBlock(g.Block, tally)
	if carryZ {
		out.ZCol = r.enc.EncodeBlock(zorder.ZCol{}, out.Block)
	}
	return out
}

// MapBlock is phase 2's map over one block: see mapRows.
func (r *Rule) MapBlock(b point.Block, tally *metrics.Tally) MapOutput {
	return r.mapRows(context.Background(), b.Len(), b.Row, tally)
}

// cancelStride is how many rows a map task handles between two looks
// at its context.
const cancelStride = 1024

// mapRows is phase 2's map task over n rows, wherever they lie: filter
// each row against the SZB-tree and route the survivors to their groups
// (first-seen order), or under Positional keep them all as the task's
// one group. There is no combine: the reduce computes each group's
// skyline over the union anyway. Routing reuses one router's scratch
// across all rows and routed rows accumulate in per-group arenas, so
// the per-row cost is zero allocations. On the Z-order paths under
// Pareto the address computed for routing is appended to the group's
// Z-address column, so it is encoded exactly once per query: shuffle,
// reduce, and merge reuse it. Once ctx is done the task stops mid-way
// and returns nothing; the executor reports ctx.Err().
func (r *Rule) mapRows(ctx context.Context, n int, row func(i int) point.Point, tally *metrics.Tally) MapOutput {
	// Under a non-Pareto relation the provider kernels derive what they
	// need themselves, so survivors travel without a column.
	keepZ := r.assignFn == nil && r.pareto()
	// Positional's one group is sized by the filter's predicted
	// survivors; routed groups grow as their rows arrive.
	hint := 0
	if r.positional {
		hint = r.survivorsOf(n)
	}
	rt := r.newRouter()
	at := map[int]int{} // gid -> its index in out.Groups and arenas
	var arenas []*point.BlockBuilder
	var out MapOutput
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
		k, seen := at[gid]
		if !seen {
			k = len(arenas)
			at[gid] = k
			arenas = append(arenas, point.NewBlockBuilder(r.dims, hint))
			out.Groups = append(out.Groups, Group{Gid: gid})
			if keepZ {
				w := r.enc.Words()
				out.Groups[k].ZCol = zorder.ZCol{Words: w, Data: make([]uint64, 0, hint*w)}
			}
		}
		arenas[k].Append(p)
		if keepZ {
			out.Groups[k].ZCol.AppendAddr(rt.z)
		}
	}
	tally.AddPointsPruned(out.Filtered)
	for k, bb := range arenas {
		out.Groups[k].Block = bb.Build()
	}
	return out
}

// survivorsOf predicts how many of n rows pass the SZB filter, to size
// a map task's arenas. A row drawn like the sample escapes the sample
// skyline about as often as a sample row sits on it, so the estimate is
// n·|sample skyline|/|sample| plus slack; append growth absorbs a miss.
func (r *Rule) survivorsOf(n int) int {
	if r.szb == nil {
		return n
	}
	return min(n, n*r.skySize/r.sampleSize+n/16+16)
}

// MergeGroupsZ is one merge task over candidate groups, in the given
// order: Z-merge one ZB-tree per group (Algorithm 4), or the ZS / SB
// recompute baselines. For the Z-order merges it concatenates the
// groups' blocks and Z-address columns into one shared columnar store
// (encoding only rows whose groups arrived without a column), builds
// index-based ZB-trees over row ranges of that store, and Z-merges (or
// Z-searches) without materializing a single per-point entry. The
// result carries its own column so a later merge reuses its addresses.
// Phase 3 runs it for the recompute merges and the non-Pareto
// relations; a Fold runs its Z-merge branch.
func (r *Rule) MergeGroupsZ(groups []Group, tally *metrics.Tally) Group {
	out := Group{Block: point.Block{Dims: r.dims}}
	total := 0
	for _, g := range groups {
		total += g.Len()
	}
	if total == 0 {
		return out
	}
	if !r.pareto() {
		// Provider fallback: concatenate the candidate groups and
		// recompute under the capability-gated kernels. Z-merge's
		// branch stashing and the columnar block trees assume Pareto
		// region semantics; recomputation over the union is exact for
		// transitive providers and yields the candidate superset the
		// final verification pass expects otherwise.
		bb := point.NewBlockBuilder(r.dims, total)
		for _, g := range groups {
			bb.AppendBlock(g.Block)
		}
		if r.merge == MergeSB {
			out.Block = dominance.SkylineBlock(r.prov, bb.Build(), tally)
		} else {
			out.Block = zbtree.ZSearchBlockUnder(r.prov, r.enc, r.fanout, bb.Build(), tally)
		}
		return out
	}
	if r.merge == MergeSB {
		bb := point.NewBlockBuilder(r.dims, total)
		for _, g := range groups {
			bb.AppendBlock(g.Block)
		}
		out.Block = seq.SBBlock(bb.Build(), tally)
		return out
	}
	st, ranges := r.candidateStore(groups, total)
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

// candidateStore concatenates candidate groups (total rows in all)
// into one shared columnar store, reusing each group's Z-address column
// where it carries one and encoding only the rest. ranges holds each
// group's [lo,hi) store rows.
func (r *Rule) candidateStore(groups []Group, total int) (*zbtree.Store, [][2]int32) {
	w := r.enc.Words()
	bb := point.NewBlockBuilder(r.dims, total)
	zc := zorder.ZCol{Words: w, Data: make([]uint64, 0, total*w)}
	ranges := make([][2]int32, 0, len(groups))
	for _, g := range groups {
		lo := int32(bb.Len())
		bb.AppendBlock(g.Block)
		if g.ZCol.Len() == g.Block.Len() && g.ZCol.Words == w {
			zc.AppendCol(g.ZCol)
		} else {
			zc.AppendCol(r.enc.EncodeBlock(zorder.ZCol{}, g.Block))
		}
		ranges = append(ranges, [2]int32{lo, int32(bb.Len())})
	}
	return zbtree.NewStoreWithZCol(r.enc, bb.Build(), zc), ranges
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

// RuleData is the gob-serializable reduce half of a Z-order rule — what
// a coordinator broadcasts to remote workers (the paper's
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

// Data serializes the rule's reduce half. The baselines refuse: their
// local kernels run under a unit-box encoder RuleData cannot express.
// So does Positional, which is in-process only.
func (r *Rule) Data() (*RuleData, error) {
	if r.localEnc != r.enc || r.positional {
		return nil, fmt.Errorf("plan: only Z-order rules serialize for broadcast")
	}
	return &RuleData{
		Dims:      r.dims,
		Bits:      r.bits,
		Mins:      r.mins,
		Maxs:      r.maxs,
		Fanout:    r.fanout,
		Local:     r.local,
		Merge:     r.merge,
		Dominance: r.Provider().Descriptor(),
	}, nil
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
		local:    rd.Local,
		merge:    rd.Merge,
		fanout:   rd.Fanout,
		prov:     prov,
		caps:     prov.Caps(),
		enc:      enc,
		localEnc: enc,
		dims:     rd.Dims,
		bits:     rd.Bits,
		mins:     rd.Mins,
		maxs:     rd.Maxs,
	}
	if r.fanout <= 0 {
		r.fanout = zbtree.DefaultFanout
	}
	return r, nil
}
