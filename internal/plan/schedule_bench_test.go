package plan

import (
	"context"
	"fmt"
	"sort"
	"testing"

	"zskyline/internal/gen"
	"zskyline/internal/point"
	"zskyline/internal/zbtree"
	"zskyline/internal/zorder"
)

// BenchmarkPhase3Schedules times phase 3 alone on the candidates of one
// anti-d8 sized input (anti-correlated, n=16,000, d=8), one
// sub-benchmark per schedule:
//
//   - fold: Algorithm 4's Z-merge fold over every group, one task
//     (mergeGroupsZ);
//   - rounds: pairwise merge rounds, a round of fewer pairs than half the
//     pool run as two-sided probes, a fuller one as mergeGroupsZ tasks;
//   - partition-sweep: the candidates cut by Z-partition, in pivot order,
//     then SweepMerge;
//   - zsort-sweep: the candidates Z-sorted and cut into a few ranges per
//     worker, each range Z-searched, then SweepMerge;
//   - one-tree: one ZB-tree over every candidate, probed in row ranges;
//   - pair: the two-sided probe, where there are two groups.
//
// The candidates come from ZDG as core runs it (M=32, δ=4) and as
// parallel runs it on 4 and 2 workers (M = map tasks = workers), each
// on a pool of that many workers. Run with -count 7 and read each
// schedule's best:
//
//	go test ./internal/plan -run '^$' -bench Phase3Schedules -count 7
func BenchmarkPhase3Schedules(b *testing.B) {
	ds := gen.Synthetic(gen.AntiCorrelated, 16000, 8, 1)
	zdg := &Spec{Strategy: ZDG, Local: ZS, Merge: MergeZM, M: 32, Delta: 4,
		SampleRatio: 0.02, Bits: 16, Seed: 1, MapTasks: 4}
	perWorker := func(w int) *Spec {
		return &Spec{Strategy: ZDG, Local: ZS, Merge: MergeZM, M: w, Delta: 4,
			SampleRatio: 0.02, Bits: 16, Seed: 1, MapTasks: w}
	}
	type schedule struct {
		name string
		run  func(context.Context, *LocalExec, *Rule, []Group) (Group, error)
	}
	fold := schedule{"fold", func(ctx context.Context, ex *LocalExec, r *Rule, gs []Group) (Group, error) {
		return ex.mergeOne(ctx, r, whole(gs), nil)
	}}
	rounds := schedule{"rounds", pairRounds}
	oneTree := schedule{"one-tree", func(ctx context.Context, ex *LocalExec, r *Rule, gs []Group) (Group, error) {
		return ex.probeGroups(ctx, r, whole(gs), every, nil)
	}}
	pair := schedule{"pair", func(ctx context.Context, ex *LocalExec, r *Rule, gs []Group) (Group, error) {
		return ex.probeGroups(ctx, r, whole(gs), others, nil)
	}}
	for _, c := range []struct {
		name      string
		spec      *Spec
		workers   int
		schedules []schedule
	}{
		{"ZDG/w2", zdg, 2, []schedule{fold, rounds, {"partition-sweep", partitionSweep}, {"zsort-sweep", zsortSweep}, oneTree}},
		{"ZDG-m4/w4", perWorker(4), 4, []schedule{rounds, {"zsort-sweep", zsortSweep}, oneTree}},
		{"ZDG-m2/w2", perWorker(2), 2, []schedule{pair, oneTree}},
	} {
		ex := NewLocalExec(c.workers)
		r, groups := candidates(b, c.spec, ds, ex)
		want := 0
		for _, s := range c.schedules {
			b.Run(c.name+"/"+s.name, func(b *testing.B) {
				var out Group
				var err error
				for i := 0; i < b.N; i++ {
					if out, err = s.run(context.Background(), ex, r, groups); err != nil {
						b.Fatal(err)
					}
				}
				if want == 0 {
					want = out.Len()
				} else if out.Len() != want {
					b.Fatalf("%d skyline rows, the first schedule gave %d", out.Len(), want)
				}
				cands := 0
				for _, g := range groups {
					cands += g.Len()
				}
				b.ReportMetric(float64(cands), "candidates")
				b.ReportMetric(float64(out.Len()), "skyline")
			})
		}
	}
}

// pairRounds is phase 3 as pairwise rounds: each round merges groups two
// by two, an odd one out waiting for the next. A round of fewer pairs
// than half the pool runs each pair as a two-sided probe over the whole
// pool; a fuller round runs one mergeGroupsZ task per pair.
func pairRounds(ctx context.Context, ex *LocalExec, r *Rule, groups []Group) (Group, error) {
	for len(groups) > 1 {
		var tasks [][]Group
		for i := 0; i+1 < len(groups); i += 2 {
			tasks = append(tasks, groups[i:i+2])
		}
		next := make([]Group, len(tasks), len(tasks)+1)
		if ex.workers >= 2*len(tasks) {
			for i, t := range tasks {
				var err error
				if next[i], err = ex.probeGroups(ctx, r, whole(t), others, nil); err != nil {
					return Group{}, err
				}
			}
		} else if err := ex.FanOut(ctx, len(tasks), func(i int) { next[i] = r.mergeGroupsZ(whole(tasks[i]), nil) }); err != nil {
			return Group{}, err
		}
		if len(groups)%2 == 1 {
			next = append(next, groups[len(groups)-1])
		}
		groups = next
	}
	return groups[0], nil
}

// partitionSweep cuts the candidates by the Z-partition their address
// falls in. A partition belongs to one group, so its candidates are
// mutually non-dominated, and partitions are Z-ranges in pivot order:
// what SweepMerge wants.
func partitionSweep(ctx context.Context, ex *LocalExec, r *Rule, groups []Group) (Group, error) {
	parts := map[int]*Group{}
	for _, g := range groups {
		for i := 0; i < g.Len(); i++ {
			z := g.ZCol.At(i)
			p := r.partitionOf(z)
			if parts[p] == nil {
				parts[p] = &Group{Gid: p, Block: point.Block{Dims: r.dims}, ZCol: zorder.ZCol{Words: g.ZCol.Words}}
			}
			parts[p].Block.Data = append(parts[p].Block.Data, g.Block.Row(i)...)
			parts[p].ZCol.AppendAddr(z)
		}
	}
	sides := make([]Group, 0, len(parts))
	for _, g := range parts {
		sides = append(sides, *g)
	}
	sort.Slice(sides, func(i, j int) bool { return sides[i].Gid < sides[j].Gid })
	out, _, err := ex.SweepMerge(ctx, r, sides, nil)
	return out, err
}

// zsortSweep Z-sorts every candidate, cuts the order into a few ranges
// per worker, Z-searches each range to its skyline on the pool, and
// sweeps the ranges in order.
func zsortSweep(ctx context.Context, ex *LocalExec, r *Rule, groups []Group) (Group, error) {
	total := 0
	for _, g := range groups {
		total += g.Len()
	}
	st, _ := r.candidateStore(whole(groups))
	order := make([]int32, total)
	for i := range order {
		order[i] = int32(i)
	}
	_, all := st.CompactRows(order)
	sort.Slice(order, func(i, j int) bool { return zorder.Compare(all.At(int(order[i])), all.At(int(order[j]))) < 0 })
	blk, zc := st.CompactRows(order)
	sides := make([]Group, splitChunks*ex.workers)
	err := ex.FanOut(ctx, len(sides), func(k int) {
		lo, hi := k*total/len(sides), (k+1)*total/len(sides)
		sides[k].Block, sides[k].ZCol = zbtree.ZSearchGroup(r.enc, r.fanout, blk.Slice(lo, hi), zc.Slice(lo, hi), nil)
	})
	if err != nil {
		return Group{}, err
	}
	out, _, err := ex.SweepMerge(ctx, r, sides, nil)
	return out, err
}

// TestPhase3SchedulesAgree holds the harness's schedules to the one-tree
// merge on a small input, so the sizing numbers time exact merges.
func TestPhase3SchedulesAgree(t *testing.T) {
	ds := gen.Synthetic(gen.AntiCorrelated, 3000, 6, 2)
	spec := &Spec{Strategy: ZDG, Local: ZS, Merge: MergeZM, M: 8, Delta: 4,
		SampleRatio: 0.05, Bits: 12, Seed: 1, MapTasks: 3}
	ex := NewLocalExec(3)
	r, groups := candidates(t, spec, ds, ex)
	want, err := ex.merge(context.Background(), r, whole(groups), nil)
	if err != nil {
		t.Fatal(err)
	}
	for name, run := range map[string]func(context.Context, *LocalExec, *Rule, []Group) (Group, error){
		"rounds": pairRounds, "partition-sweep": partitionSweep, "zsort-sweep": zsortSweep,
	} {
		got, err := run(context.Background(), ex, r, groups)
		if err != nil {
			t.Fatal(err)
		}
		sameSet(t, got.Points(), want.Points(), fmt.Sprintf("%s over %d groups", name, len(groups)))
	}
}
