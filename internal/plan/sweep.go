package plan

import (
	"context"

	"zskyline/internal/metrics"
	"zskyline/internal/obs"
	"zskyline/internal/point"
)

// repBudget is how many representative rows (zbtree's
// Store.Representatives) stand in for a whole skyline: each side's
// lenders in the sweep's pre-pass, and the rows of Learn's SZB filter.
// The first few buy most of the kills while every one of them is a
// dominance test against each row probed. Across Z-range shards 16 a
// side take 70 % of the dominated candidates of eight independent d=8
// shards (64 take 84 %); as the map filter, 16 sample-skyline rows
// leave the fewest or nearly the fewest dominance tests of any budget
// on anti-correlated d = 8 and d = 12 data (EXPERIMENTS.md).
const repBudget = 16

// SweepMerge merges the skylines of disjoint Z-ranges given in ascending
// range order — every address in groups[i] is at most every address in
// groups[i+1], which the caller vouches for — under one merge/sweep
// span. Under Pareto dominance a dominator never has the larger
// Z-address, so a row of groups[i] is on the merged skyline exactly when
// no row of groups[0..i-1] dominates it, and the merge is a one-way
// sweep: a few representative rows of each earlier side take out most of
// the dominated rows for a handful of tests each, ZB-trees over what is
// left of the earlier sides settle the rest, and every step fans over
// the pool. Other relations give no such direction, and the
// representatives are picked and tested under Pareto: for them this is
// a probeMerge with no pre-pass whose one tree, over all the
// candidates, answers under the relation — exact for any transitive
// one. The span records what the merge moved: the candidate rows it
// was handed, how many of those the representative pre-pass eliminated
// before any tree was probed (rep_killed), and the rows that survived.
func (ex *LocalExec) SweepMerge(ctx context.Context, r *Rule, groups []Group, tally *metrics.Tally) (Group, error) {
	sp, ctx := obs.StartSpan(ctx, "merge/sweep")
	defer sp.End()
	candidates, repKilled := 0, 0
	for _, g := range groups {
		candidates += g.Len()
	}
	out := Group{Block: point.Block{Dims: r.dims}}
	var err error
	switch {
	case candidates == 0:
	case !r.pareto():
		var m *probeMerge
		if m, err = ex.probeGroups(ctx, r, Whole(groups), every, tally); err == nil {
			out = m.result()
		}
	default:
		out, repKilled, err = ex.sweep(ctx, r, groups, tally)
	}
	if err != nil {
		return Group{}, err
	}
	sp.SetAttr("shards", len(groups))
	sp.SetAttr("candidates", candidates)
	sp.SetAttr("rep_killed", repKilled)
	sp.SetAttr("skyline", out.Len())
	return out, nil
}

// sweep is the Pareto case of SweepMerge as a one-way probeMerge over
// every row of groups: pack, pick each side's representatives, clear the
// rows a representative of an earlier side dominates, index what is left
// of every side but the last, probe, compact. A row the pre-pass cleared
// is dominated by a row of an earlier side, which by transitivity also
// dominates whatever the cleared row would have — so the trees lose
// nothing by leaving it out.
func (ex *LocalExec) sweep(ctx context.Context, r *Rule, groups []Group, tally *metrics.Tally) (Group, int, error) {
	st, sides := r.candidateStore(Whole(groups))
	m := newProbeMerge(st, sides, earlier)
	// Side 0 answers to nothing. Later sides answer to more trees, so
	// their ranges go first and the cheap ones fill in at the end.
	for side := len(groups) - 1; side > 0; side-- {
		m.cut(side, splitChunks*ex.workers)
	}
	reps := make([][]int32, len(groups)-1)
	killed := make([]int, len(m.ranges))
	var out Group
	err := ex.runSteps(ctx,
		step{len(reps), func(i int) { reps[i] = m.st.Representatives(m.sides[i][0], m.sides[i][1], repBudget) }},
		step{len(m.ranges), func(i int) { killed[i] = m.repProbe(i, reps, tally) }},
		step{len(groups) - 1, func(i int) { m.build(i, r.fanout) }},
		step{len(m.ranges), func(i int) { m.probe(ctx, i, tally) }},
		step{1, func(int) { out = m.result() }},
	)
	if err != nil {
		return Group{}, 0, err
	}
	repKilled := 0
	for _, k := range killed {
		repKilled += k
	}
	return out, repKilled, nil
}

// repProbe clears alive for the rows of probe range c that a
// representative of an earlier side dominates, and returns how many.
func (m *probeMerge) repProbe(c int, reps [][]int32, tally *metrics.Tally) int {
	pr := m.ranges[c]
	killed, tests := 0, int64(0)
	for i := pr.lo; i < pr.hi; i++ {
		p := m.st.Row(i)
	earlier:
		for _, side := range reps[:pr.side] {
			for _, rep := range side {
				tests++
				if point.Dominates(m.st.Row(rep), p) {
					m.alive[i] = false
					killed++
					break earlier
				}
			}
		}
	}
	tally.AddDominanceTests(tests)
	return killed
}
