package plan

import (
	"context"

	"zskyline/internal/metrics"
	"zskyline/internal/point"
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
	// others is a tree per side: each side is a skyline, so it answers
	// only to the other sides.
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

// build indexes the rows of one side that are still alive. Only probes
// walk the tree, and they count into their own range's Count.
func (m *probeMerge) build(side, fanout int) {
	rows := make([]int32, 0, m.sides[side][1]-m.sides[side][0])
	for i := m.sides[side][0]; i < m.sides[side][1]; i++ {
		if m.alive[i] {
			rows = append(rows, i)
		}
	}
	m.trees[side] = zbtree.BuildRows(m.st, fanout, rows, nil)
}

// probe clears alive for the rows of probe range k that some side they
// answer to dominates, and adds its tests to tally once, when it ends.
// It gives up, leaving the range half done, once ctx is; the executor
// then reports ctx.Err().
func (m *probeMerge) probe(ctx context.Context, k int, tally *metrics.Tally) {
	var c metrics.Count
	defer func() { tally.Add(c) }()
	pr := m.ranges[k]
	for i := pr.lo; i < pr.hi; i++ {
		if (i-pr.lo)%cancelStride == 0 && ctx.Err() != nil {
			return
		}
		if !m.alive[i] {
			continue
		}
		for b, t := range m.trees {
			if t != nil && m.answersTo(pr.side, b) && t.DominatesRow(&c, i) {
				m.alive[i] = false
				break
			}
		}
	}
}

// survivors lists the store rows of every side that are still alive.
func (m *probeMerge) survivors() []int32 {
	n := 0
	for _, ok := range m.alive {
		if ok {
			n++
		}
	}
	rows := make([]int32, 0, n)
	for i, ok := range m.alive {
		if ok {
			rows = append(rows, int32(i))
		}
	}
	return rows
}

// result compacts the survivors into the merged group, with their
// column.
func (m *probeMerge) result() Group {
	var out Group
	out.Block, out.ZCol = m.st.CompactRows(m.survivors())
	return out
}

// points returns the survivors as row views of the store, which the
// merge gathered for itself, so they are not copied again.
func (m *probeMerge) points() []point.Point {
	rows := m.survivors()
	out := make([]point.Point, len(rows))
	for i, row := range rows {
		out[i] = m.st.Row(row)
	}
	return out
}

// merge is phase 3's schedule on the pool. With Z-merge a candidate is
// on the skyline exactly when no candidate dominates it — under a
// non-transitive relation, on the candidates' skyline, which the
// pipeline's verification closes — so the merge is a probe with no
// ordering precondition: one group is its own skyline, two to
// perGroupTrees groups are a probeMerge with reach others (a tree per
// group, each candidate probing every other group's tree), and more
// share one ZB-tree that every candidate probes. The trees answer under
// the rule's relation. The ZS and SB recompute merges are one
// mergeGroupsZ task. Every schedule gathers each candidate out of its
// group once, and the result is row views of what was gathered: of the
// probe's store, or of a single part's own group.
func (ex *LocalExec) merge(ctx context.Context, r *Rule, parts []Part, tally *metrics.Tally) ([]point.Point, error) {
	rc := every
	switch {
	case r.merge != MergeZM:
		out, err := ex.mergeOne(ctx, r, parts, tally)
		return out.Points(), err
	case len(parts) == 1:
		return parts[0].points(), nil
	case len(parts) <= perGroupTrees:
		rc = others
	}
	m, err := ex.probeGroups(ctx, r, parts, rc, tally)
	if err != nil {
		return nil, err
	}
	return m.points(), nil
}

// perGroupTrees is the most groups phase 3 gives a tree each. A group is
// already a skyline, so one tree over every candidate spends part of
// each probe on the candidate's own group; per-group trees skip it, but
// each probe walks one root per other group. On ZDG's candidates of
// 200,000 rows (anti-correlated, two seeds, and independent; d = 8 and
// 12), per-group trees make fewer dominance tests and fewer region
// tests on every input up to four groups (39–46 % fewer dominance
// tests at three); from five, independent rows make more
// region tests, and from seven more of both (EXPERIMENTS.md, "Core
// groups by its pool").
const perGroupTrees = 4

// probeGroups gathers the parts into one store — a side each, or one
// side for them all when the reach is every — and runs a probeMerge over
// it: index the sides, then probe a few row ranges per worker and side.
func (ex *LocalExec) probeGroups(ctx context.Context, r *Rule, parts []Part, rc reach, tally *metrics.Tally) (*probeMerge, error) {
	st, sides := r.candidateStore(parts)
	if rc == every {
		sides = [][2]int32{{0, int32(st.Len())}}
	}
	m := newProbeMerge(st, sides, rc)
	for side := range m.sides {
		m.cut(side, splitChunks*ex.workers)
	}
	err := ex.runSteps(ctx,
		step{len(m.sides), func(i int) { m.build(i, r.fanout) }},
		step{len(m.ranges), func(i int) { m.probe(ctx, i, tally) }},
	)
	return m, err
}

// mergeOne runs mergeGroupsZ over all the parts as one pool task.
func (ex *LocalExec) mergeOne(ctx context.Context, r *Rule, parts []Part, tally *metrics.Tally) (Group, error) {
	var out Group
	err := ex.FanOut(ctx, 1, func(int) { out = r.mergeGroupsZ(parts, tally) })
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
