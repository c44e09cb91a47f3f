// Package plan holds the paper's three-phase skyline pipeline exactly
// once, independent of where it runs. The phase logic — learn the
// partitioning rule from a sample (§5.1), filter and route points in
// mappers (§5.2, Algorithm 3), reduce each group to its skyline
// candidates, and merge candidates into the global skyline (§5.3,
// Algorithm 4) — lives here; the execution substrates supply only an
// Executor that says where tasks run:
//
//   - LocalExec is a shared-memory goroutine pool; internal/core runs
//     the paper's strategies on it, internal/parallel runs ZDG with one
//     group per worker, and internal/gpmrs fans the MR-GPMRS baseline's
//     own tasks over it (LocalExec.FanOut);
//   - internal/dist adapts a TCP coordinator, which maps and merges on
//     its own LocalExec, and framed-transport workers that reduce
//     (internal/transport).
//
// A Rule is the learned phase-1 artifact. It is directly executable
// in-process and, for the Z-order strategies, its reduce half is
// serializable (RuleData) so a coordinator can broadcast it to remote
// workers — the paper's distributed-cache step.
package plan

import (
	"fmt"
	"slices"

	"zskyline/internal/dominance"
	"zskyline/internal/metrics"
	"zskyline/internal/point"
	"zskyline/internal/zbtree"
	"zskyline/internal/zorder"
)

// Strategy selects the partitioning/grouping scheme of phase 1.
type Strategy int

// The partitioning strategies of the paper's evaluation (§6.1).
const (
	// Grid is classic equal-width grid partitioning [9][11].
	Grid Strategy = iota
	// Angle is angle-based partitioning [8].
	Angle
	// Random is hash partitioning [18].
	Random
	// NaiveZ is plain Z-order equal-frequency partitioning (§4.1).
	NaiveZ
	// ZHG is Z-order partitioning plus Heuristic Grouping (§4.2).
	ZHG
	// ZDG is Z-order partitioning plus Dominance-based Grouping (§4.3),
	// the paper's headline strategy.
	ZDG
)

// String names the strategy as the paper does.
func (s Strategy) String() string {
	switch s {
	case Grid:
		return "Grid"
	case Angle:
		return "Angle"
	case Random:
		return "Random"
	case NaiveZ:
		return "Naive-Z"
	case ZHG:
		return "ZHG"
	case ZDG:
		return "ZDG"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// LocalAlgo selects the per-group skyline algorithm of phase 2.
type LocalAlgo int

// Local skyline algorithms (§6.1).
const (
	// SB sorts by coordinate sum then filters (block-nested-loops).
	SB LocalAlgo = iota
	// ZS is Z-search over a ZB-tree, the state of the art.
	ZS
)

// String names the local algorithm.
func (a LocalAlgo) String() string {
	if a == SB {
		return "SB"
	}
	return "ZS"
}

// MergeAlgo selects the phase-3 candidate merging algorithm.
type MergeAlgo int

// Merge algorithms compared in §6.3.
const (
	// MergeZM is the paper's Z-merge (Algorithm 4).
	MergeZM MergeAlgo = iota
	// MergeZS recomputes the skyline of all candidates with Z-search.
	MergeZS
	// MergeSB recomputes it with the sort-based filter.
	MergeSB
)

// String names the merge algorithm.
func (a MergeAlgo) String() string {
	switch a {
	case MergeZM:
		return "ZM"
	case MergeZS:
		return "ZS"
	default:
		return "SB"
	}
}

// Spec parameterizes one pipeline run: what to compute, not where.
// The zero value is not valid; substrates fill it from their configs.
type Spec struct {
	// Strategy is the phase-1 partitioning scheme.
	Strategy Strategy
	// Local is the per-group skyline algorithm of phase 2.
	Local LocalAlgo
	// Merge is the phase-3 candidate merging algorithm.
	Merge MergeAlgo
	// M is the target number of groups (the paper's M); also the grid /
	// angle / random partition count for the baselines.
	M int
	// Delta is the partition expansion factor delta >= 1: Z-order
	// strategies first cut the curve into M*Delta partitions (§4.2).
	Delta int
	// SampleRatio is the reservoir sampling ratio of phase 1.
	SampleRatio float64
	// Bits is the Z-order grid resolution per dimension.
	Bits int
	// Fanout is the ZB-tree node capacity; 0 selects the default.
	Fanout int
	// Seed drives sampling (and nothing else; the pipeline is
	// deterministic given data and seed).
	Seed int64
	// DisableSZBFilter turns off the Algorithm 3 mapper filter against
	// the sample-skyline ZB-tree (ablation experiments).
	DisableSZBFilter bool
	// TreeMerge is ignored. It chose pairwise merge rounds for phase 3,
	// which now has one schedule (see MergePhase).
	TreeMerge bool
	// MapTasks is the phase-2 map task count when ChunkSize is zero.
	MapTasks int
	// ChunkSize, when positive, bounds the points per map task and
	// overrides MapTasks — the chunking the RPC substrate uses.
	ChunkSize int
	// Dominance selects the dominance relation the pipeline computes
	// under; the zero value is classic Pareto dominance. Learn consults
	// the provider's capabilities and disables the Pareto-derived
	// optimizations (SZB-tree mapper filter, dominance-based partition
	// grouping) that the relation does not keep sound.
	Dominance dominance.Descriptor
}

// Validate checks the spec's algorithmic parameters.
func (s *Spec) Validate() error {
	if s.M < 1 {
		return fmt.Errorf("plan: M must be >= 1, got %d", s.M)
	}
	if s.Delta < 1 {
		return fmt.Errorf("plan: Delta must be >= 1, got %d", s.Delta)
	}
	if s.SampleRatio <= 0 || s.SampleRatio > 1 {
		return fmt.Errorf("plan: SampleRatio must be in (0,1], got %v", s.SampleRatio)
	}
	if s.Bits < 1 || s.Bits > zorder.MaxBits {
		return fmt.Errorf("plan: Bits must be in [1,%d], got %d", zorder.MaxBits, s.Bits)
	}
	if _, err := s.Dominance.Provider(); err != nil {
		return err
	}
	return nil
}

// fanout resolves the ZB-tree fanout default.
func (s *Spec) fanout() int {
	if s.Fanout <= 0 {
		return zbtree.DefaultFanout
	}
	return s.Fanout
}

// Group is one group's worth of routed points or skyline candidates —
// the unit phase-2 reducers and phase-3 merge tasks operate on. The
// payload is a contiguous Block, so a group crosses an executor
// boundary (goroutine, TCP) as one flat array.
//
// ZCol is the group's Z-address column on the encode-once path:
// when non-empty it holds one address per block row, encoded with the
// rule's bounds encoder (Rule.Encoder) at the map phase, and travels
// with the block through shuffle, reduce, and merge so no later phase
// re-encodes. An empty ZCol is always legal — consumers fall back to
// encoding locally — but a non-empty one MUST satisfy the invariant
// (row count equal to the block's, addresses from the rule's bounds
// encoder); the kernels check shape and drop columns that do not line
// up.
type Group struct {
	Gid   int
	Block point.Block
	ZCol  zorder.ZCol
}

// NewGroup copies pts (each dims wide) into a block-backed group — the
// bridge from view-based code onto the block data plane.
func NewGroup(gid, dims int, pts []point.Point) Group {
	return Group{Gid: gid, Block: point.BlockOf(dims, pts)}
}

// Len returns the group's row count.
func (g Group) Len() int { return g.Block.Len() }

// Points materializes zero-copy row views of the group's block.
func (g Group) Points() []point.Point { return g.Block.Points() }

// Fold is the skyline of every batch added so far under one rule: how a
// skyline absorbs new data, by the paper's Z-merge (Algorithm 4).
// Incremental maintenance and a worker's resident shard skyline are
// both a Fold. It is not safe for concurrent use. Every Add installs a
// fresh group, so a skyline handed out earlier stays intact.
type Fold struct {
	r     *Rule
	tally *metrics.Tally
	sky   Group
}

// NewFold starts an empty fold under r; tally may be nil.
func NewFold(r *Rule, tally *metrics.Tally) *Fold {
	return NewFoldFrom(r, tally, Group{Block: point.Block{Dims: r.dims}})
}

// NewFoldFrom starts a fold whose skyline is sky, taken as it is: the
// caller vouches that sky is a skyline under r in Z-order and, under
// Pareto, carries its column — what a Fold's own Skyline or a Pareto
// SweepMerge returns. Nothing is recomputed.
func NewFoldFrom(r *Rule, tally *metrics.Tally, sky Group) *Fold {
	return &Fold{r: r, tally: tally, sky: sky}
}

// Skyline returns the skyline of every row added so far, in Z-order.
// Under Pareto it carries its column.
func (f *Fold) Skyline() Group { return f.sky }

// Add folds the batch g into the skyline and returns how many of g's
// rows are on the new one. The batch is reduced to its own skyline
// first, then Z-merged into the kept one, even an empty one, on a store
// that carries the rule's relation, so the result is always Z-sorted.
// Z-merge is exact under any transitive relation, which is all Add
// accepts. The batch's skyline is gathered into the merge's store
// straight from g, after the kept rows, which is how the survivors are
// counted. Under another relation than Pareto the skyline drops its
// column, like a local skyline.
func (f *Fold) Add(g Group) (added int) {
	if g.Len() == 0 {
		return 0
	}
	batch := pick(g, f.r.LocalSkylineRows(g, f.tally))
	st, ranges := f.r.candidateStore([]part{{g: f.sky}, batch})
	rows := f.r.zmerge(st, ranges, f.tally)
	for _, row := range rows {
		if row >= ranges[1][0] {
			added++
		}
	}
	f.sky = Group{}
	f.sky.Block, f.sky.ZCol = st.CompactRows(rows)
	if !f.r.pareto() {
		f.sky.ZCol = zorder.ZCol{}
	}
	return added
}

// part is one candidate group as phase 3 takes it: the rows of g at
// rows, in that order, or every row of g when rows is nil. A reduce
// names its local skyline by position, so phase 3 copies each
// candidate once, out of the group the map gathered, into its store.
type part struct {
	g    Group
	rows []int32
}

// pick is the part of g at rows, as a local skyline kernel returns
// them; nil rows pick none.
func pick(g Group, rows []int32) part {
	if rows == nil {
		rows = []int32{}
	}
	return part{g: g, rows: rows}
}

// whole is every row of each group, one part per group.
func whole(groups []Group) []part {
	parts := make([]part, len(groups))
	for i, g := range groups {
		parts[i].g = g
	}
	return parts
}

// len returns the part's row count.
func (p part) len() int {
	if p.rows == nil {
		return p.g.Len()
	}
	return len(p.rows)
}

// partsLen returns the parts' total row count.
func partsLen(parts []part) int {
	n := 0
	for _, p := range parts {
		n += p.len()
	}
	return n
}

// MapOutput is one map task's result. It copies no row: it lists the
// rows the task routed by their positions in its input, in input order,
// with each row's group and, on the Z-order paths under Pareto, its
// Z-address, and it counts the input rows the task dropped (SZB-tree
// filter or pruned partitions). Shuffle reads the routed rows from the
// task's input, which must stay unchanged until then.
type MapOutput struct {
	lists  []routed // the routed rows' full chunks, in routing order
	tail   routed   // the chunk after them, which may have room left
	words  int      // address width; 0 when the rule keeps no addresses
	groups int      // the rule's group count
	// Filtered is how many input rows the task dropped.
	Filtered int64
	dims     int
	row      func(i int) point.Point // the task's input
}

// routed is one chunk of a map task's lists, allocated at its full size
// and never copied: routed rows' input positions, their groups and
// their addresses (empty when the rule keeps none).
type routed struct {
	rows, gids []int32
	z          zorder.ZCol
}

// newRouted allocates an empty chunk with room for c rows of w-word
// addresses.
func newRouted(c, w int) routed {
	return routed{rows: make([]int32, 0, c), gids: make([]int32, 0, c),
		z: zorder.ZCol{Words: w, Data: make([]uint64, 0, c*w)}}
}

// Shuffle gathers map outputs into per-group row blocks in ascending
// group id order — the coordinator-side shuffle of the RPC and
// shared-memory substrates — and sums the filter drops: see gather.
func Shuffle(outs []MapOutput) ([]Group, int64) {
	byGid, filtered := gather(nil, outs)
	return nonEmpty(byGid), filtered
}

// gather copies the rows outs route into byGid, the groups indexed by
// gid, and returns them with the outputs' summed drops. Each row is
// copied once, straight from its map task's input, with its Z-address
// beside it, in output order and then in each output's routing order.
// Groups are indexed by id, so their order, and so phase 3's, does not
// depend on which rows the map tasks dropped or on the order of the
// outputs. The rows of each group are counted first, so a group grows
// once per call, and the groups that are still empty share one block
// arena and one column arena, each cut at its exact size: two
// allocations, with no size-class slack per group. A file pass gathers
// each wave into the groups of the waves before it. Every output comes
// from one rule, so all share a row width and an address width.
func gather(byGid []Group, outs []MapOutput) ([]Group, int64) {
	var filtered int64
	for _, out := range outs {
		filtered += out.Filtered
		for len(byGid) < out.groups {
			byGid = append(byGid, Group{Gid: len(byGid),
				Block: point.Block{Dims: out.dims}, ZCol: zorder.ZCol{Words: out.words}})
		}
	}
	need := make([]int, len(byGid))
	for _, out := range outs {
		for _, l := range out.lists {
			l.count(need)
		}
		out.tail.count(need)
	}
	fresh := 0 // rows bound for groups that are still empty
	for gid, c := range need {
		if byGid[gid].Block.Data == nil {
			fresh += c
		}
	}
	if len(byGid) > 0 {
		rows := make([]float64, fresh*byGid[0].Block.Dims)
		zs := make([]uint64, fresh*byGid[0].ZCol.Words)
		for gid, c := range need {
			g := &byGid[gid]
			g.Block.Data, rows = reserve(g.Block.Data, c*g.Block.Dims, rows)
			g.ZCol.Data, zs = reserve(g.ZCol.Data, c*g.ZCol.Words, zs)
		}
	}
	for _, out := range outs {
		for _, l := range out.lists {
			l.copyTo(byGid, out.row)
		}
		out.tail.copyTo(byGid, out.row)
	}
	return byGid, filtered
}

// count adds the chunk's rows of each group to need, indexed by gid.
func (l *routed) count(need []int) {
	for _, gid := range l.gids {
		need[gid]++
	}
}

// copyTo appends the chunk's rows, read through row, and their
// addresses to their groups in byGid.
func (l *routed) copyTo(byGid []Group, row func(i int) point.Point) {
	for k, pos := range l.rows {
		g := &byGid[l.gids[k]]
		g.Block.Data = append(g.Block.Data, row(int(pos))...)
		if g.ZCol.Words > 0 {
			g.ZCol.AppendRow(l.z, k)
		}
	}
}

// nonEmpty returns the groups of byGid that hold a row, in ascending id.
func nonEmpty(byGid []Group) []Group {
	return slices.DeleteFunc(byGid, func(g Group) bool { return g.Len() == 0 })
}

// reserve returns s with room for n more elements, and what is left of
// arena: a nil s takes exactly n off the arena's front, capped there so
// it never appends into the next; any other s grows as append grows it.
func reserve[E any](s []E, n int, arena []E) ([]E, []E) {
	if s == nil && n > 0 {
		return arena[:0:n], arena[n:]
	}
	return slices.Grow(s, n), arena
}

// cuts splits n input rows into the map tasks' [lo,hi) row ranges:
// ChunkSize rows each when it is set, else MapTasks near-equal ranges
// (one per row when there are fewer rows than tasks). Every input,
// in memory or in a file, is cut by this one rule.
func (s *Spec) cuts(n int) [][2]int {
	var out [][2]int
	if s.ChunkSize > 0 {
		for lo := 0; lo < n; lo += s.ChunkSize {
			out = append(out, [2]int{lo, min(lo+s.ChunkSize, n)})
		}
		return out
	}
	k := min(s.mapTasks(), n)
	for i := 0; i < k; i++ {
		out = append(out, [2]int{i * n / k, (i + 1) * n / k})
	}
	return out
}

// batch is the rows a file pass reads as block i where no cut says
// otherwise: ChunkSize, or 1<<16 when it is unset.
func (s *Spec) batch(int) int {
	if s.ChunkSize > 0 {
		return s.ChunkSize
	}
	return 1 << 16
}

// mapTasks resolves the map task count default.
func (s *Spec) mapTasks() int {
	if s.MapTasks <= 0 {
		return 8
	}
	return s.MapTasks
}
