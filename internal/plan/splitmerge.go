package plan

import (
	"context"

	"zskyline/internal/metrics"
	"zskyline/internal/zbtree"
)

// splitMerge is one pairwise Z-merge laid out for several workers. Both
// inputs are skylines, so a row of one survives the merge exactly when
// no row of the other dominates it: the two directions are independent,
// and each cuts into row ranges that probe the opposite side's tree
// without writing to it. A tree merge's last round is a single pair, so
// this is what keeps the pool busy to the end.
type splitMerge struct {
	st     *zbtree.Store
	sides  [2][2]int32 // each side's [lo,hi) store rows
	trees  [2]*zbtree.BlockTree
	chunks int    // probe ranges per side
	alive  []bool // per store row: no row of the other side dominates it
}

// newSplitMerge packs the pair into one store, as MergeGroupsZ would.
func (r *Rule) newSplitMerge(pair []Group, chunks int) *splitMerge {
	st, ranges := r.candidateStore(pair, pair[0].Len()+pair[1].Len())
	return &splitMerge{st: st, sides: [2][2]int32{ranges[0], ranges[1]},
		chunks: chunks, alive: make([]bool, st.Len())}
}

// build indexes one side.
func (m *splitMerge) build(side, fanout int, tally *metrics.Tally) {
	m.trees[side] = zbtree.BuildRows(m.st, fanout, rowRange(m.sides[side]), tally)
}

// probe marks the rows of probe range c (side 0's ranges come first)
// that the opposite side does not dominate.
func (m *splitMerge) probe(c int) {
	side := c / m.chunks
	lo, n, k := int(m.sides[side][0]), int(m.sides[side][1]-m.sides[side][0]), c%m.chunks
	other := m.trees[1-side]
	for i := lo + k*n/m.chunks; i < lo+(k+1)*n/m.chunks; i++ {
		m.alive[i] = !other.DominatesRow(int32(i))
	}
}

// result compacts the survivors of both sides into the merged group.
func (m *splitMerge) result() Group {
	rows := make([]int32, 0, len(m.alive))
	for i, ok := range m.alive {
		if ok {
			rows = append(rows, int32(i))
		}
	}
	var out Group
	out.Block, out.ZCol = m.st.CompactRows(rows)
	return out
}

// splittable reports whether every task is a pairwise Z-merge under
// Pareto dominance — the one shape splitMerge handles.
func (r *Rule) splittable(tasks [][]Group) bool {
	if !r.pareto() || r.merge != MergeZM {
		return false
	}
	for _, t := range tasks {
		if len(t) != 2 {
			return false
		}
	}
	return true
}

// runSplitMerges runs pairwise merge tasks as splitMerges — pack, index
// both sides, probe chunks row ranges per side, compact — with each step
// fanned over the pool.
func (ex *LocalExec) runSplitMerges(ctx context.Context, r *Rule, tasks [][]Group, chunks int, tally *metrics.Tally) ([]Group, error) {
	ms := make([]*splitMerge, len(tasks))
	outs := make([]Group, len(tasks))
	steps := []struct {
		n int
		f func(i int)
	}{
		{len(tasks), func(i int) { ms[i] = r.newSplitMerge(tasks[i], chunks) }},
		{2 * len(tasks), func(i int) { ms[i/2].build(i%2, r.fanout, tally) }},
		{2 * chunks * len(tasks), func(i int) { ms[i/(2*chunks)].probe(i % (2 * chunks)) }},
		{len(tasks), func(i int) { outs[i] = ms[i].result() }},
	}
	for _, s := range steps {
		if err := ex.run(ctx, s.n, s.f); err != nil {
			return nil, err
		}
	}
	return outs, nil
}
