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
// encoder); Shuffle and the kernels check shape and drop columns that
// do not line up.
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
// accepts. The batch's rows come after the kept rows in the merge's
// store, which is how the survivors are counted. Under another relation
// than Pareto the skyline drops its column, like a local skyline.
func (f *Fold) Add(g Group) (added int) {
	if g.Len() == 0 {
		return 0
	}
	batch := f.r.LocalSkylineGroup(g, f.tally)
	st, ranges := f.r.candidateStore([]Group{f.sky, batch}, f.sky.Len()+batch.Len())
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

// MapOutput is one map task's result: the chunk's surviving rows per
// group, plus how many input points the task dropped (SZB-tree filter
// or pruned partitions).
type MapOutput struct {
	Groups   []Group
	Filtered int64
}

// Shuffle gathers map outputs into per-group row blocks in ascending
// group id order — the coordinator-side shuffle of the RPC and
// shared-memory substrates — and sums the filter drops. The order of the
// groups, and so of phase 3's rows, does not depend on which rows the
// map tasks dropped or in which order their outputs arrive. A group's
// rows are counted before they are copied, so its block and column are
// allocated once at their exact size, and a group that one map output
// alone contributed is passed through without a copy.
// Z-address columns are concatenated alongside their blocks; a group
// whose contributions do not all carry a consistent column loses it
// (the reduce kernel then re-encodes, trading speed, never
// correctness).
func Shuffle(outs []MapOutput) ([]Group, int64) {
	type acc struct {
		pieces []Group
		rows   int
		ok     bool // every contribution carries a column of the first's width
	}
	byGroup := map[int]*acc{}
	var order []int
	var filtered int64
	for _, out := range outs {
		filtered += out.Filtered
		for _, g := range out.Groups {
			if g.Block.Dims <= 0 {
				continue
			}
			a, seen := byGroup[g.Gid]
			if !seen {
				a = &acc{ok: g.ZCol.Words > 0}
				byGroup[g.Gid] = a
				order = append(order, g.Gid)
			}
			a.pieces = append(a.pieces, g)
			a.rows += g.Len()
			a.ok = a.ok && g.ZCol.Words == a.pieces[0].ZCol.Words && g.ZCol.Len() == g.Len()
		}
	}
	slices.Sort(order)
	groups := make([]Group, len(order))
	for i, gid := range order {
		a := byGroup[gid]
		g := a.pieces[0]
		if len(a.pieces) > 1 {
			bb := point.NewBlockBuilder(g.Block.Dims, a.rows)
			zc := zorder.ZCol{Words: g.ZCol.Words}
			if a.ok {
				zc.Data = make([]uint64, 0, a.rows*zc.Words)
			}
			for _, p := range a.pieces {
				bb.AppendBlock(p.Block)
				if a.ok {
					zc.AppendCol(p.ZCol)
				}
			}
			g.Block, g.ZCol = bb.Build(), zc
		}
		if !a.ok {
			g.ZCol = zorder.ZCol{}
		}
		groups[i] = g
	}
	return groups, filtered
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
