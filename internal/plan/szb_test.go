package plan

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"zskyline/internal/gen"
	"zskyline/internal/metrics"
	"zskyline/internal/point"
	"zskyline/internal/seq"
	"zskyline/internal/zbtree"
)

// raceDetector is set when the test binary runs under -race.
var raceDetector bool

// withFilter returns a copy of r whose SZB filter is tree.
func withFilter(r *Rule, tree *zbtree.BlockTree) *Rule {
	c := *r
	c.szb = tree
	return &c
}

// runRule runs phases 2 and 3 of spec over ds with a rule already
// learned, as Run does after its learn span, counting in tally, and
// returns the skyline and the filtered row count.
func runRule(t *testing.T, spec *Spec, ds *point.Dataset, r *Rule, tally *metrics.Tally) ([]point.Point, int64) {
	t.Helper()
	ctx := context.Background()
	d := newDriver(spec, NewLocalExec(2), tally)
	in, cuts := memInput{ds}, spec.cuts(ds.Len())
	d.rep.Groups = r.groups
	groups, err := d.phase2(ctx, r, in, cuts)
	if err != nil {
		t.Fatal(err)
	}
	sky, rep, err := d.mergeAndReport(ctx, r, groups, in)
	if err != nil {
		t.Fatal(err)
	}
	return sky, rep.Filtered
}

// The SZB filter probes the repBudget sample-skyline rows of largest
// dominance volume. On the bench's two d = 8 shapes, seeds 1–8, under
// parallel's spec and core's default ZDG spec: every row it drops is
// dominated by a sample-skyline row; the run stays exact; on
// anti-correlated data phases 2 and 3 make no more dominance tests than
// with a tree over the whole sample skyline; and on correlated data it
// keeps at least 99.9 % of that tree's drops over the eight seeds, and
// 99.8 % on each (a handful of rows in 120,000 that only a row outside
// the representatives dominates).
//
// Under -short or the race detector only seed 1 runs, and the
// eight-seed bound is not checked.
func TestSZBRepresentativesFilter(t *testing.T) {
	seeds := int64(8)
	if testing.Short() || raceDetector {
		seeds = 1
	}
	specs := map[string]*Spec{
		"parallel": {Strategy: ZDG, Local: ZS, Merge: MergeZM, M: 2, Delta: 4,
			MapTasks: 2, SampleRatio: 0.02, Seed: 1, Bits: 16},
		"zdg": {Strategy: ZDG, Local: ZS, Merge: MergeZM, M: 32, Delta: 4,
			MapTasks: 16, SampleRatio: 0.02, Bits: 16},
	}
	for _, tc := range []struct {
		dist gen.Distribution
		n    int
	}{{gen.AntiCorrelated, 16384}, {gen.Correlated, 120000}} {
		repDrops, fullDrops := map[string]int{}, map[string]int{}
		for seed := int64(1); seed <= seeds; seed++ {
			ds := gen.Synthetic(tc.dist, tc.n, 8, seed)
			want := seq.SBBlock(point.BlockOf(ds.Dims, ds.Points), nil).Points()
			for name, spec := range specs {
				label := fmt.Sprintf("%v/%s/seed %d", tc.dist, name, seed)
				rep, full, repTests, fullTests := checkSZBFilter(t, label, spec, ds, want)
				repDrops[name] += rep
				fullDrops[name] += full
				switch {
				case tc.dist == gen.AntiCorrelated && repTests > fullTests:
					t.Errorf("%s: %d dominance tests, more than the whole tree's %d", label, repTests, fullTests)
				case tc.dist == gen.Correlated && 1000*rep < 998*full:
					t.Errorf("%s: filter dropped %d rows, under 99.8 %% of the whole tree's %d", label, rep, full)
				}
			}
		}
		for name := range specs {
			if seeds == 8 && tc.dist == gen.Correlated && 1000*repDrops[name] < 999*fullDrops[name] {
				t.Errorf("%v/%s: filter dropped %d rows over eight seeds, under 99.9 %% of the whole tree's %d",
					tc.dist, name, repDrops[name], fullDrops[name])
			}
		}
	}
}

// checkSZBFilter learns spec's rule on ds and checks its filter against
// a tree over the whole sample skyline: it holds the representatives,
// every row it drops is dominated by a sample-skyline row, and the run
// with either tree returns want. It returns the rows each tree drops
// and the dominance tests of phases 2 and 3 with each.
func checkSZBFilter(t *testing.T, label string, spec *Spec, ds *point.Dataset, want []point.Point) (repDrops, fullDrops int, repTests, fullTests int64) {
	t.Helper()
	r := learnRule(t, spec, ds)
	st := r.szb.Store() // every sample-skyline row; the filter holds some
	if got, want := r.szb.Len(), min(repBudget, st.Len()); got != want || r.skySize != st.Len() {
		t.Fatalf("%s: filter holds %d of %d sample-skyline rows (skySize %d), want %d",
			label, got, st.Len(), r.skySize, want)
	}
	reps := st.Representatives(0, int32(st.Len()), repBudget)
	slices.Sort(reps)
	held := slices.Clone(r.szb.Rows())
	slices.Sort(held)
	if !slices.Equal(held, reps) {
		t.Fatalf("%s: filter rows %v, want the representatives %v", label, held, reps)
	}

	full := zbtree.BuildStore(st, r.fanout, nil)
	g := make([]uint32, ds.Dims)
	for _, p := range ds.Points {
		g = r.enc.GridInto(g, p)
		byFull := full.DominatesPoint(new(metrics.Count), g, p)
		if byFull {
			fullDrops++
		}
		if !r.szb.DominatesPoint(new(metrics.Count), g, p) {
			continue
		}
		repDrops++
		dominated := false
		for i := 0; i < st.Len() && !dominated; i++ {
			dominated = point.Dominates(st.Row(int32(i)), p)
		}
		if !dominated || !byFull {
			t.Fatalf("%s: filter dropped %v, which no sample-skyline row dominates", label, p)
		}
	}

	repTally, fullTally := &metrics.Tally{}, &metrics.Tally{}
	repSky, repFiltered := runRule(t, spec, ds, withFilter(r, zbtree.BuildRows(st, r.fanout, r.szb.Rows(), repTally)), repTally)
	fullSky, fullFiltered := runRule(t, spec, ds, withFilter(r, zbtree.BuildStore(st, r.fanout, fullTally)), fullTally)
	sameSet(t, repSky, want, label+"/representatives")
	sameSet(t, fullSky, want, label+"/whole sample skyline")
	if repFiltered != int64(repDrops) || fullFiltered != int64(fullDrops) {
		t.Fatalf("%s: runs filtered %d/%d, probes dropped %d/%d", label, repFiltered, fullFiltered, repDrops, fullDrops)
	}
	repTests, fullTests = repTally.Snapshot().DominanceTests, fullTally.Snapshot().DominanceTests
	t.Logf("%s: sample skyline %d, filtered %d → %d, dominance tests %d → %d",
		label, st.Len(), fullDrops, repDrops, fullTests, repTests)
	return repDrops, fullDrops, repTests, fullTests
}
