package plan

import (
	"context"

	"zskyline/internal/metrics"
	"zskyline/internal/zbtree"
)

// probeMerge is one merge of candidate skylines laid out for several
// workers. A row survives the merge exactly when no row of the sides it
// answers to dominates it: once those sides are indexed the checks are
// independent, and each side cuts into row ranges that probe the trees
// without writing to them. Which sides a row answers to is the merge's
// reach.
type probeMerge struct {
	st     *zbtree.Store
	sides  [][2]int32 // each side's [lo,hi) store rows
	reach  reach
	trees  []*zbtree.BlockTree // nil for a side nothing answers to
	ranges []probeRange
	alive  []bool // per store row: nothing has dominated it yet
}

// reach says which sides a row of a probeMerge is checked against.
type reach int

const (
	// others is a pairwise Z-merge: each side is a skyline, so it answers
	// only to the other.
	others reach = iota
	// earlier is a sweep (sweep.go): a side answers to the sides before it.
	earlier
	// every is one tree over all the candidates: the single side answers
	// to itself. Strict dominance never holds between a row and itself or
	// its duplicate, so no row can eliminate itself.
	every
)

// probeRange is one task's share of a side: store rows [lo,hi).
type probeRange struct {
	side   int
	lo, hi int32
}

// newProbeMerge starts a merge over a store the sides are packed into,
// sides[i] being side i's [lo,hi) store rows.
func newProbeMerge(st *zbtree.Store, sides [][2]int32, reach reach) *probeMerge {
	m := &probeMerge{st: st, sides: sides, reach: reach,
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
	switch m.reach {
	case others:
		return b != a
	case earlier:
		return b < a
	}
	return true
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

// merge is phase 3's schedule on the pool. Under Pareto dominance with
// Z-merge a candidate is on the skyline exactly when no candidate
// dominates it, so the merge is a probe with no ordering precondition:
// one group is its own skyline, two are a two-sided probeMerge (each
// side probes the other's tree), and three or more share one ZB-tree
// that every candidate probes. The ZS and SB recompute merges and the
// other relations are one MergeGroupsZ task.
func (ex *LocalExec) merge(ctx context.Context, r *Rule, groups []Group, tally *metrics.Tally) (Group, error) {
	switch {
	case !r.pareto() || r.merge != MergeZM:
		return ex.mergeOne(ctx, r, groups, tally)
	case len(groups) == 1:
		return groups[0], nil
	case len(groups) == 2:
		return ex.probeGroups(ctx, r, groups, others, tally)
	}
	return ex.probeGroups(ctx, r, groups, every, tally)
}

// probeGroups packs the groups into one store — a side each, or one
// side for them all when the reach is every — and runs a probeMerge over
// it: index the sides, probe a few row ranges per worker and side,
// compact.
func (ex *LocalExec) probeGroups(ctx context.Context, r *Rule, groups []Group, rc reach, tally *metrics.Tally) (Group, error) {
	total := 0
	for _, g := range groups {
		total += g.Len()
	}
	st, sides := r.candidateStore(groups, total)
	if rc == every {
		sides = [][2]int32{{0, int32(total)}}
	}
	m := newProbeMerge(st, sides, rc)
	for side := range m.sides {
		m.cut(side, splitChunks*ex.workers)
	}
	err := ex.runSteps(ctx,
		step{len(m.sides), func(i int) { m.build(i, r.fanout, tally) }},
		step{len(m.ranges), func(i int) { m.probe(ctx, i) }},
	)
	if err != nil {
		return Group{}, err
	}
	return m.result(), nil
}

// mergeOne runs MergeGroupsZ over all the groups as one pool task.
func (ex *LocalExec) mergeOne(ctx context.Context, r *Rule, groups []Group, tally *metrics.Tally) (Group, error) {
	var out Group
	err := ex.FanOut(ctx, 1, func(int) { out = r.MergeGroupsZ(groups, tally) })
	return out, err
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
