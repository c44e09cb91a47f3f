package plan

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync/atomic"
	"testing"

	"zskyline/internal/dominance"
	"zskyline/internal/gen"
	"zskyline/internal/metrics"
	"zskyline/internal/obs"
	"zskyline/internal/point"
	"zskyline/internal/seq"
	"zskyline/internal/zorder"
)

// clusterRule is the rule a dist.Cluster compiles: unit box, no learned
// partitions, Z-merge.
func clusterRule(t testing.TB, dims, bits int, local LocalAlgo, desc dominance.Descriptor) *Rule {
	t.Helper()
	rd := RuleData{Dims: dims, Bits: bits, Mins: make([]float64, dims), Maxs: make([]float64, dims),
		Local: local, Merge: MergeZM, Dominance: desc}
	for i := range rd.Maxs {
		rd.Maxs[i] = 1
	}
	r, err := FromData(&rd)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// rangeSkylines cuts pts into the Z-ranges the cut addresses delimit
// (cut i is the first address of range i+1) and returns each range's
// local skyline, in range order, as a shard would reply.
func rangeSkylines(r *Rule, pts []point.Point, cuts []zorder.ZAddr) []Group {
	parts := make([][]point.Point, len(cuts)+1)
	for _, p := range pts {
		z := r.Encoder().Encode(p)
		i := sort.Search(len(cuts), func(i int) bool { return zorder.Compare(z, cuts[i]) < 0 })
		parts[i] = append(parts[i], p)
	}
	groups := make([]Group, len(parts))
	for i, part := range parts {
		groups[i] = r.LocalSkylineGroup(Group{Gid: i, Block: point.BlockOf(r.dims, part)}, nil)
	}
	return groups
}

// quantileCuts returns n-1 cut addresses that split pts into n ranges
// of near-equal row counts. Every cut is the address of a row, so that
// row sits exactly on its range's lower bound.
func quantileCuts(r *Rule, pts []point.Point, n int) []zorder.ZAddr {
	zs := make([]zorder.ZAddr, len(pts))
	for i, p := range pts {
		zs[i] = r.Encoder().Encode(p)
	}
	sort.Slice(zs, func(i, j int) bool { return zorder.Compare(zs[i], zs[j]) < 0 })
	var cuts []zorder.ZAddr
	for k := 1; k < n; k++ {
		z := zs[k*len(zs)/n]
		if len(cuts) == 0 || zorder.Compare(cuts[len(cuts)-1], z) < 0 {
			cuts = append(cuts, z)
		}
	}
	return cuts
}

func reference(prov dominance.Provider, pts []point.Point) []point.Point {
	if dominance.IsPareto(prov) {
		return seq.BruteForce(pts)
	}
	return seq.SkylineUnder(prov, pts, nil)
}

// TestSweepMergeMatchesBruteForce: over 1, 2, 3 and 8 ranges of tie-heavy
// and continuous data, Z-sorted (ZS) and unsorted (SB) shard skylines,
// Pareto and flex, the sweep returns the all-pairs skyline and the merge
// MergeGroupsZ computes, with a column that lines up with its rows.
func TestSweepMergeMatchesBruteForce(t *testing.T) {
	flexFor := func(dims int) dominance.Descriptor {
		w := [][]float64{make([]float64, dims), make([]float64, dims)}
		for i := 0; i < dims; i++ {
			w[0][i], w[1][i] = 1, 1
		}
		w[1][0] = 3
		return dominance.Descriptor{Kind: dominance.KindFlex, Weights: w}
	}
	ex := NewLocalExec(3)
	for _, dims := range []int{2, 8} {
		inputs := map[string][]point.Point{
			"anti":  gen.Synthetic(gen.AntiCorrelated, 1500, dims, 3).Points,
			"indep": gen.Synthetic(gen.Independent, 1500, dims, 4).Points,
			"ties":  gen.Synthetic(gen.Independent, 1500, dims, 5).Points,
		}
		for _, p := range inputs["ties"] {
			for k := range p {
				p[k] = float64(int(p[k]*4)) / 4
			}
		}
		// Duplicates: every tenth row twice, so equal rows meet inside one
		// range and their dominators and victims lie across the cuts.
		for name, pts := range inputs {
			for i := 0; i < len(pts); i += 10 {
				pts = append(pts, pts[i].Clone())
			}
			inputs[name] = pts
		}
		same := make([]point.Point, 40)
		for i := range same {
			same[i] = make(point.Point, dims)
			for k := range same[i] {
				same[i][k] = 0.5
			}
		}
		inputs["all-equal"] = same
		for name, pts := range inputs {
			for _, tc := range []struct {
				label string
				local LocalAlgo
				desc  dominance.Descriptor
			}{{"zs", ZS, dominance.Descriptor{}}, {"sb", SB, dominance.Descriptor{}}, {"flex", ZS, flexFor(dims)}} {
				r := clusterRule(t, dims, 8, tc.local, tc.desc)
				want := reference(r.Provider(), pts)
				for _, n := range []int{1, 2, 3, 8} {
					label := fmt.Sprintf("d%d/%s/%s/%d", dims, name, tc.label, n)
					groups := rangeSkylines(r, pts, quantileCuts(r, pts, n))
					got, stats, err := ex.SweepMerge(context.Background(), r, groups, nil)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					sameSet(t, got.Points(), want, label)
					sameSet(t, got.Points(), r.MergeGroupsZ(groups, nil).Points(), label+" vs MergeGroupsZ")
					cands := 0
					for _, g := range groups {
						cands += g.Len()
					}
					if stats.Candidates != cands || stats.Skyline != len(want) ||
						stats.RepKilled < 0 || stats.RepKilled > cands-len(want) {
						t.Errorf("%s: stats %+v over %d groups, %d candidates, %d skyline rows", label, stats, len(groups), cands, len(want))
					}
					if !r.pareto() {
						if stats.RepKilled != 0 {
							t.Errorf("%s: %d rows killed by direction under a relation that has none", label, stats.RepKilled)
						}
						continue
					}
					zc := r.Encoder().EncodeBlock(zorder.ZCol{}, got.Block)
					if got.ZCol.Len() != got.Len() || string(mustBinary(t, zc)) != string(mustBinary(t, got.ZCol)) {
						t.Errorf("%s: merged column does not match its rows", label)
					}
				}
			}
		}
	}
}

// TestSweepMergeEmptyRanges puts all rows into a few of eight uniform
// ranges: empty sides before, between and after the occupied ones, a
// single occupied range, and no rows at all.
func TestSweepMergeEmptyRanges(t *testing.T) {
	const dims = 3
	r := clusterRule(t, dims, 8, ZS, dominance.Descriptor{})
	var cuts []zorder.ZAddr
	for k := uint64(1); k < 8; k++ {
		cuts = append(cuts, zorder.ZAddr{k << 61})
	}
	ds := gen.Synthetic(gen.AntiCorrelated, 1200, dims, 9)
	// The leading three address bits are the top grid bit of each
	// dimension: squeezing coordinates below one half empties ranges.
	pin := func(low ...int) []point.Point {
		var out []point.Point
		for _, p := range ds.Points {
			q := p.Clone()
			for _, k := range low {
				q[k] *= 0.49
			}
			out = append(out, q)
		}
		return out
	}
	ex := NewLocalExec(2)
	for name, pts := range map[string][]point.Point{
		"all": ds.Points, "half": pin(0), "quarter": pin(0, 1), "one-range": pin(0, 1, 2), "none": nil,
	} {
		groups := rangeSkylines(r, pts, cuts)
		occupied := 0
		for _, g := range groups {
			if g.Len() > 0 {
				occupied++
			}
		}
		if name == "one-range" && occupied != 1 || name == "quarter" && occupied > 2 {
			t.Fatalf("%s: %d occupied ranges", name, occupied)
		}
		got, stats, err := ex.SweepMerge(context.Background(), r, groups, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sameSet(t, got.Points(), seq.BruteForce(pts), name)
		if got.Block.Dims != dims || stats.Skyline != got.Len() {
			t.Errorf("%s: dims %d, stats %+v", name, got.Block.Dims, stats)
		}
	}
}

// TestSweepRepresentativesKill: on independent data most dominated
// candidates fall to the pre-pass, and the span says so.
func TestSweepRepresentativesKill(t *testing.T) {
	r := clusterRule(t, 4, 10, ZS, dominance.Descriptor{})
	pts := gen.Synthetic(gen.Independent, 6000, 4, 21).Points
	groups := rangeSkylines(r, pts, quantileCuts(r, pts, 8))
	tr := obs.NewTrace("q")
	_, stats, err := NewLocalExec(2).SweepMerge(obs.ContextWithTrace(context.Background(), tr), r, groups, nil)
	if err != nil {
		t.Fatal(err)
	}
	if dominated := stats.Candidates - stats.Skyline; stats.RepKilled*2 < dominated {
		t.Errorf("representatives killed %d of %d dominated candidates", stats.RepKilled, dominated)
	}
	kids := tr.Root().Children()
	if len(kids) != 1 || kids[0].Name() != "merge/sweep" {
		t.Fatalf("spans under the root: %v", kids)
	}
	attrs := map[string]string{}
	for _, a := range kids[0].Attrs() {
		attrs[a.Key] = a.Value
	}
	for key, want := range map[string]int{"shards": 8, "candidates": stats.Candidates,
		"rep_killed": stats.RepKilled, "skyline": stats.Skyline} {
		if attrs[key] != fmt.Sprint(want) {
			t.Errorf("merge/sweep %s = %v, want %d", key, attrs[key], want)
		}
	}
}

// countdownCtx is done from its n-th Err call on: a cancellation that
// lands on a chosen poll, whichever step that poll belongs to.
type countdownCtx struct {
	context.Context
	left atomic.Int64
}

func countdown(polls int64) *countdownCtx {
	c := &countdownCtx{Context: context.Background()}
	c.left.Store(polls)
	return c
}

func (c *countdownCtx) Err() error {
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestSweepMergeCancelled: one row that dominates a later side of three
// thousand equal rows. A probe whose context ends at its second poll must
// stop there, mid-range; and a sweep cancelled at any poll — between
// steps, between tasks, inside a range — returns ctx.Err() and no rows.
func TestSweepMergeCancelled(t *testing.T) {
	r := clusterRule(t, 2, 8, ZS, dominance.Descriptor{})
	later := make([]point.Point, 3*cancelStride)
	for i := range later {
		later[i] = point.Point{0.9, 0.9}
	}
	groups := []Group{NewGroup(0, 2, []point.Point{{0.1, 0.1}}), NewGroup(1, 2, later)}

	st, sides := r.candidateStore(groups, 1+len(later))
	m := newProbeMerge(st, sides, earlier)
	m.cut(1, 1)
	m.build(0, r.fanout, nil)
	m.probe(countdown(1), 0)
	for i, ok := range m.alive[1:] {
		if ok != (i >= cancelStride) {
			t.Fatalf("row %d of the cancelled range: alive=%v; the probe must stop at its second poll", i, ok)
		}
	}

	ex := NewLocalExec(1)
	for budget := int64(0); ; budget++ {
		got, _, err := ex.SweepMerge(countdown(budget), r, groups, nil)
		if err == nil {
			sameSet(t, got.Points(), groups[0].Points(), fmt.Sprintf("budget %d", budget))
			return
		}
		if !errors.Is(err, context.Canceled) || got.Len() != 0 {
			t.Fatalf("budget %d: %d rows, err %v", budget, got.Len(), err)
		}
		if budget > 1000 {
			t.Fatal("sweep still cancelled after 1000 polls")
		}
	}
}

// BenchmarkClusterSweep100kD8 is the cross-shard merge of a cluster-mixed
// sized query: 100k independent d=8 rows in eight uniform Z-range shards,
// each reduced to its skyline up front, then merged by the sweep the
// cluster runs and by one tree over every candidate, as batch phase 3
// runs. The straddle input is a range one shard wide across a cut: the
// skylines of the half shards either side of it, merged by the sweep and
// by the two-sided pair.
func BenchmarkClusterSweep100kD8(b *testing.B) {
	const dims, shards = 8, 8
	r := clusterRule(b, dims, 16, ZS, dominance.Descriptor{})
	var cuts []zorder.ZAddr
	for k := uint64(1); k < shards; k++ {
		cuts = append(cuts, zorder.ZAddr{k << 61, 0})
	}
	pts := gen.Synthetic(gen.Independent, 100000, dims, 42).Points
	// From the middle of shard 3 to the middle of shard 4.
	lo, hi := zorder.ZAddr{7 << 60, 0}, zorder.ZAddr{9 << 60, 0}
	var across []point.Point
	for _, p := range pts {
		if z := r.Encoder().Encode(p); zorder.Compare(z, lo) >= 0 && zorder.Compare(z, hi) < 0 {
			across = append(across, p)
		}
	}
	whole, straddle := rangeSkylines(r, pts, cuts), rangeSkylines(r, across, cuts[3:4])
	ex := NewLocalExec(0)
	sweep := func(groups []Group, tally *metrics.Tally) (Group, SweepStats, error) {
		return ex.SweepMerge(context.Background(), r, groups, tally)
	}
	probe := func(rc reach) func([]Group, *metrics.Tally) (Group, SweepStats, error) {
		return func(groups []Group, tally *metrics.Tally) (Group, SweepStats, error) {
			out, err := ex.probeGroups(context.Background(), r, groups, rc, tally)
			return out, SweepStats{}, err
		}
	}
	for _, arm := range []struct {
		name   string
		groups []Group
		merge  func([]Group, *metrics.Tally) (Group, SweepStats, error)
	}{
		{"sweep", whole, sweep},
		{"one-tree", whole, probe(every)},
		{"straddle/sweep", straddle, sweep},
		{"straddle/pair", straddle, probe(others)},
	} {
		b.Run(arm.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := arm.merge(arm.groups, nil); err != nil {
					b.Fatal(err)
				}
			}
			// Counted outside the timed loop: a tally shared by two cores
			// slows the probes it counts.
			b.StopTimer()
			tally := &metrics.Tally{}
			out, stats, err := arm.merge(arm.groups, tally)
			if err != nil {
				b.Fatal(err)
			}
			cands := 0
			for _, g := range arm.groups {
				cands += g.Len()
			}
			b.ReportMetric(float64(cands), "candidates/op")
			b.ReportMetric(float64(stats.RepKilled), "rep_killed/op")
			b.ReportMetric(float64(out.Len()), "skyline/op")
			b.ReportMetric(float64(tally.Snapshot().DominanceTests), "dom_tests/op")
			b.ReportMetric(float64(tally.Snapshot().RegionTests), "region_tests/op")
		})
	}
}
