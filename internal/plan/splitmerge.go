package plan

import (
	"context"

	"zskyline/internal/metrics"
	"zskyline/internal/zbtree"
)

// probeMerge is one merge of candidate skylines laid out for several
// workers. Every side is a skyline, so a row survives the merge exactly
// when no row of the sides it answers to dominates it: once those sides
// are indexed the checks are independent, and each side cuts into row
// ranges that probe the trees without writing to them. A pairwise Z-merge
// is the two-sided case — each side answers to the other; a tree merge's
// last round is a single pair, so this is what keeps the pool busy to
// the end. A sweep (sweep.go) is the one-way case: side a answers only
// to the sides before it.
type probeMerge struct {
	st     *zbtree.Store
	sides  [][2]int32 // each side's [lo,hi) store rows
	oneWay bool
	trees  []*zbtree.BlockTree // nil for a side nothing answers to
	ranges []probeRange
	alive  []bool // per store row: nothing has dominated it yet
}

// probeRange is one task's share of a side: store rows [lo,hi).
type probeRange struct {
	side   int
	lo, hi int32
}

// newProbeMerge starts a merge over a store the sides are packed into,
// sides[i] being side i's [lo,hi) store rows.
func newProbeMerge(st *zbtree.Store, sides [][2]int32, oneWay bool) *probeMerge {
	m := &probeMerge{st: st, sides: sides, oneWay: oneWay,
		trees: make([]*zbtree.BlockTree, len(sides)), alive: make([]bool, st.Len())}
	for i := range m.alive {
		m.alive[i] = true
	}
	return m
}

// cut appends side's rows to the probe ranges, in parts equal pieces.
func (m *probeMerge) cut(side, parts int) {
	lo, n := int(m.sides[side][0]), int(m.sides[side][1]-m.sides[side][0])
	for k := 0; k < parts; k++ {
		m.ranges = append(m.ranges, probeRange{side, int32(lo + k*n/parts), int32(lo + (k+1)*n/parts)})
	}
}

// answersTo reports whether a row of side a must be checked against
// side b.
func (m *probeMerge) answersTo(a, b int) bool {
	return b < a || (!m.oneWay && b != a)
}

// build indexes the rows of one side that are still alive.
func (m *probeMerge) build(side, fanout int, tally *metrics.Tally) {
	rows := make([]int32, 0, m.sides[side][1]-m.sides[side][0])
	for i := m.sides[side][0]; i < m.sides[side][1]; i++ {
		if m.alive[i] {
			rows = append(rows, i)
		}
	}
	m.trees[side] = zbtree.BuildRows(m.st, fanout, rows, tally)
}

// probe clears alive for the rows of probe range c that some side they
// answer to dominates. It gives up, leaving the range half done, once
// ctx is; the executor then reports ctx.Err().
func (m *probeMerge) probe(ctx context.Context, c int) {
	pr := m.ranges[c]
	for i := pr.lo; i < pr.hi; i++ {
		if (i-pr.lo)%cancelStride == 0 && ctx.Err() != nil {
			return
		}
		if !m.alive[i] {
			continue
		}
		for b, t := range m.trees {
			if t != nil && m.answersTo(pr.side, b) && t.DominatesRow(i) {
				m.alive[i] = false
				break
			}
		}
	}
}

// result compacts the survivors of every side into the merged group.
func (m *probeMerge) result() Group {
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
// Pareto dominance — the shape runSplitMerges handles.
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

// runSplitMerges runs pairwise merge tasks as two-sided probeMerges —
// pack, index both sides, probe chunks row ranges per side, compact —
// with each step fanned over the pool.
func (ex *LocalExec) runSplitMerges(ctx context.Context, r *Rule, tasks [][]Group, chunks int, tally *metrics.Tally) ([]Group, error) {
	ms := make([]*probeMerge, len(tasks))
	outs := make([]Group, len(tasks))
	err := ex.runSteps(ctx,
		step{len(tasks), func(i int) {
			// Packed as MergeGroupsZ would.
			st, sides := r.candidateStore(tasks[i], tasks[i][0].Len()+tasks[i][1].Len())
			ms[i] = newProbeMerge(st, sides, false)
			ms[i].cut(0, chunks)
			ms[i].cut(1, chunks)
		}},
		step{2 * len(tasks), func(i int) { ms[i/2].build(i%2, r.fanout, tally) }},
		step{2 * chunks * len(tasks), func(i int) { ms[i/(2*chunks)].probe(ctx, i%(2*chunks)) }},
		step{len(tasks), func(i int) { outs[i] = ms[i].result() }},
	)
	if err != nil {
		return nil, err
	}
	return outs, nil
}

// step is one stage of a probeMerge run: n independent tasks.
type step struct {
	n int
	f func(i int)
}

// runSteps fans each step over the pool in turn, a barrier between
// steps, and stops at the first that fails.
func (ex *LocalExec) runSteps(ctx context.Context, steps ...step) error {
	for _, s := range steps {
		if err := ex.FanOut(ctx, s.n, s.f); err != nil {
			return err
		}
	}
	return nil
}
