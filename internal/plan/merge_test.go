package plan

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"testing"

	"zskyline/internal/dominance"
	"zskyline/internal/gen"
	"zskyline/internal/metrics"
	"zskyline/internal/obs"
	"zskyline/internal/point"
	"zskyline/internal/seq"
	"zskyline/internal/zorder"
)

// mergeInputs are the table's datasets at width d: continuous
// anti-correlated and independent rows, and quarter-grid ties with every
// tenth row duplicated, so equal rows meet inside a group and across
// groups.
func mergeInputs(d int) map[string]*point.Dataset {
	ties := gen.Synthetic(gen.Independent, 1500, d, 33)
	for _, p := range ties.Points {
		for k := range p {
			p[k] = float64(int(p[k]*4)) / 4
		}
	}
	for i, n := 0, ties.Len(); i < n; i += 10 {
		ties.Points = append(ties.Points, ties.Points[i].Clone())
	}
	return map[string]*point.Dataset{
		"anti":  gen.Synthetic(gen.AntiCorrelated, 1500, d, 31),
		"indep": gen.Synthetic(gen.Independent, 1500, d, 32),
		"ties":  ties,
	}
}

// candidates runs phases 1 and 2 of spec over a ZSKY copy of ds on ex
// as RunFile does, and returns the rule and the candidates phase 3 is
// handed, each group's copied out as its own group by Candidates.
func candidates(t testing.TB, spec *Spec, ds *point.Dataset, ex *LocalExec) (*Rule, []Group) {
	t.Helper()
	d := newDriver(spec, ex, nil)
	in := fileInput{writeZSKY(t, ds)}
	r, cuts, err := d.learn(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	parts, err := d.phase2(context.Background(), r, in, cuts)
	if err != nil {
		t.Fatal(err)
	}
	groups := make([]Group, len(parts))
	for i, p := range parts {
		groups[i] = r.Candidates(p.Group, p.Rows)
	}
	return r, groups
}

// mergeSpanGroups returns the groups attribute of tr's merge/round-1
// span, failing unless it is the run's one merge span.
func mergeSpanGroups(t *testing.T, tr *obs.Trace, label string) int {
	t.Helper()
	var found []*obs.Span
	for _, sp := range tr.Root().Children() {
		if strings.HasPrefix(sp.Name(), "merge/") {
			found = append(found, sp)
		}
	}
	if len(found) != 1 || found[0].Name() != "merge/round-1" {
		t.Fatalf("%s: merge spans %v, want one merge/round-1", label, found)
	}
	for _, a := range found[0].Attrs() {
		if a.Key == "groups" {
			n, err := strconv.Atoi(a.Value)
			if err != nil {
				t.Fatal(err)
			}
			return n
		}
	}
	t.Fatalf("%s: merge/round-1 has no groups attribute", label)
	return 0
}

// TestMergePhaseMatchesBruteForce: over every strategy that merges
// Z-carrying candidates, three inputs, d ∈ {2, 8} and 1, 2, 3 or 8
// workers (and as many groups asked for), plan.Run returns the
// all-pairs skyline under one merge/round-1 span, and phase 3 on the
// same candidates returns those rows. Between them the cases reach every arm: one group, a tree per
// group up to perGroupTrees groups, and one tree over more.
func TestMergePhaseMatchesBruteForce(t *testing.T) {
	arms := map[string]bool{}
	for _, d := range []int{2, 8} {
		for name, ds := range mergeInputs(d) {
			want := seq.BruteForce(ds.Points)
			for _, st := range []Strategy{ZDG, ZHG, NaiveZ, Grid} {
				for _, w := range []int{1, 2, 3, 8} {
					label := fmt.Sprintf("d%d/%s/%v/w%d", d, name, st, w)
					spec := validSpec()
					spec.Strategy, spec.M, spec.MapTasks = st, w, w
					ex := NewLocalExec(w)

					tr := obs.NewTrace("q")
					sky, _, err := Run(obs.ContextWithTrace(context.Background(), tr), spec, ds, ex, nil)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					sameSet(t, sky, want, label)
					switch n := mergeSpanGroups(t, tr, label); {
					case n == 1:
						arms["one"] = true
					case n <= perGroupTrees:
						arms["per-group"] = true
					default:
						arms["tree"] = true
					}

					r, groups := candidates(t, spec, ds, ex)
					got, err := ex.merge(context.Background(), r, Whole(groups), nil)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					sameSet(t, got, want, label+"/merge")
				}
			}
		}
	}
	if len(arms) != 3 {
		t.Errorf("arms reached: %v, want one, per-group and tree", arms)
	}
}

// TestPairMergeMatchesMergeGroupsZ: two groups merge as a two-sided
// probe on the pool; the result must be the merge mergeGroupsZ computes,
// as a set, and the probe compacted must hold those rows with a column
// that still lines up — including when one side is empty or the sides
// share coordinate-equal rows.
func TestPairMergeMatchesMergeGroupsZ(t *testing.T) {
	ds := gen.Synthetic(gen.AntiCorrelated, 4000, 5, 8)
	r := learnRule(t, validSpec(), ds)
	half := func(lo, hi int) Group {
		return r.LocalSkylineGroup(Group{Block: point.BlockOf(ds.Dims, ds.Points[lo:hi])}, nil)
	}
	a, b := half(0, 2000), half(2000, 4000)
	dup := half(0, 2000) // coordinate-equal to a: neither copy dominates the other
	empty := Group{Block: point.Block{Dims: ds.Dims}}
	ex := NewLocalExec(4)
	for name, pair := range map[string][]Group{"a+b": {a, b}, "a+a": {a, dup}, "a+empty": {a, empty},
		"empty+b": {empty, b}, "empty+empty": {empty, empty}} {
		views, err := ex.merge(context.Background(), r, Whole(pair), nil)
		if err != nil {
			t.Fatal(err)
		}
		sameSet(t, views, r.mergeGroupsZ(Whole(pair), nil).Points(), name)
		got, err := compacted(ex.probeGroups(context.Background(), r, Whole(pair), others, nil))
		if err != nil {
			t.Fatal(err)
		}
		sameSet(t, got.Points(), views, name+"/compacted")
		zc := r.Encoder().EncodeBlock(zorder.ZCol{}, got.Block)
		if got.Block.Dims != ds.Dims || got.ZCol.Len() != got.Len() || string(mustBinary(t, zc)) != string(mustBinary(t, got.ZCol)) {
			t.Errorf("%s: merged column does not match its rows", name)
		}
	}
}

// TestPerGroupTreesTestLess pins why phase 3 gives each group its own
// tree up to perGroupTrees groups: on ZDG's candidates of anti-d8's
// shape (anti-correlated, n = 16,000, d = 8) at M = 3 and 4, both
// reaches keep the same survivors, and probing the other groups' trees
// makes fewer dominance tests than probing one tree over every
// candidate, each candidate's own group included.
func TestPerGroupTreesTestLess(t *testing.T) {
	ds := gen.Synthetic(gen.AntiCorrelated, 16000, 8, 42)
	ex := NewLocalExec(2)
	for _, m := range []int{3, 4} {
		spec := &Spec{Strategy: ZDG, Local: ZS, Merge: MergeZM, M: m, Delta: 4,
			SampleRatio: 0.02, Bits: 16, Seed: 42, MapTasks: 4}
		r, groups := candidates(t, spec, ds, ex)
		if len(groups) != m || m > perGroupTrees {
			t.Fatalf("M=%d: %d groups against a threshold of %d", m, len(groups), perGroupTrees)
		}
		var one, per metrics.Tally
		oneTree, err := compacted(ex.probeGroups(context.Background(), r, Whole(groups), every, &one))
		if err != nil {
			t.Fatal(err)
		}
		each, err := compacted(ex.probeGroups(context.Background(), r, Whole(groups), others, &per))
		if err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("M=%d", m)
		sameSet(t, each.Points(), oneTree.Points(), label)
		o, p := one.Snapshot().DominanceTests, per.Snapshot().DominanceTests
		t.Logf("%s: %d survivors; dominance tests one tree %d, per-group trees %d", label, each.Len(), o, p)
		if p >= o {
			t.Errorf("%s: per-group trees made %d dominance tests, one tree %d", label, p, o)
		}
	}
}

// TestMergePhaseCancelled: one row that dominates two later groups of
// three thousand equal rows each. A one-tree probe whose context ends at
// its second poll must stop there, mid-range; and a merge cancelled at
// any poll — between steps, between tasks, inside a range — returns
// ctx.Err() and no rows.
func TestMergePhaseCancelled(t *testing.T) {
	r := clusterRule(t, 2, 8, ZS, dominance.Descriptor{})
	equal := func(gid int) Group {
		rows := make([]point.Point, 3*cancelStride)
		for i := range rows {
			rows[i] = point.Point{0.9, 0.9}
		}
		return NewGroup(gid, 2, rows)
	}
	groups := []Group{NewGroup(0, 2, []point.Point{{0.1, 0.1}}), equal(1), equal(2)}

	total := 1 + 6*cancelStride
	st, _ := r.candidateStore(Whole(groups))
	m := newProbeMerge(st, [][2]int32{{0, int32(total)}}, every)
	m.cut(0, 1)
	m.build(0, r.fanout)
	m.probe(countdown(1), 0, nil)
	for i, ok := range m.alive {
		if ok != (i == 0 || i >= cancelStride) {
			t.Fatalf("row %d of the cancelled range: alive=%v; the probe must stop at its second poll", i, ok)
		}
	}

	ex := NewLocalExec(1)
	for budget := int64(0); ; budget++ {
		got, err := MergePhase(countdown(budget), ex, r, groups, false, nil)
		if err == nil {
			sameSet(t, got, groups[0].Points(), fmt.Sprintf("budget %d", budget))
			return
		}
		if !errors.Is(err, context.Canceled) || got != nil {
			t.Fatalf("budget %d: %d rows, err %v", budget, len(got), err)
		}
		if budget > 1000 {
			t.Fatal("merge still cancelled after 1000 polls")
		}
	}
}

// compacted is a probe merge's result compacted with its column, for the
// tests and benchmarks that look at a merge's rows as a group.
func compacted(m *probeMerge, err error) (Group, error) {
	if err != nil {
		return Group{}, err
	}
	return m.result(), nil
}
