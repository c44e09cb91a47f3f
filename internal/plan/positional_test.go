package plan

import (
	"context"
	"testing"

	"zskyline/internal/gen"
	"zskyline/internal/metrics"
	"zskyline/internal/point"
	"zskyline/internal/seq"
	"zskyline/internal/zorder"
)

func positionalSpec() *Spec {
	spec := validSpec()
	spec.Strategy = Positional
	spec.TreeMerge = true
	spec.MapTasks = 5
	return spec
}

// A Positional run maps row views in place on LocalExec (Run) and
// packed blocks everywhere else (RunSource). Both must be exact, drop
// the same rows, and report one group per map task.
func TestPositionalRowsAndBlocksAgree(t *testing.T) {
	for _, dist := range []gen.Distribution{gen.Correlated, gen.AntiCorrelated} {
		ds := gen.Synthetic(dist, 3000, 4, 17)
		want := seq.BruteForce(ds.Points)
		spec := positionalSpec()

		rowsTally, blocksTally := &metrics.Tally{}, &metrics.Tally{}
		rowsSky, rowsRep, err := Run(context.Background(), spec, ds, NewLocalExec(3), rowsTally)
		if err != nil {
			t.Fatal(err)
		}
		blocksSky, blocksRep, err := RunSource(context.Background(), spec, point.NewDatasetSource(ds), NewLocalExec(3), blocksTally)
		if err != nil {
			t.Fatal(err)
		}
		sameSet(t, rowsSky, want, dist.String()+"/rows")
		sameSet(t, blocksSky, want, dist.String()+"/blocks")
		for path, rep := range map[string]*Report{"rows": rowsRep, "blocks": blocksRep} {
			if rep.Groups != spec.MapTasks || len(rep.PerGroupCandidates) != spec.MapTasks {
				t.Errorf("%v/%s: %d groups, %d per-group entries, want %d", dist, path, rep.Groups, len(rep.PerGroupCandidates), spec.MapTasks)
			}
			if rep.Filtered == 0 || rep.SampleSkySize == 0 {
				t.Errorf("%v/%s: filter idle: %+v", dist, path, rep)
			}
		}
		if rowsRep.Filtered != blocksRep.Filtered || rowsTally.Snapshot().PointsPruned != rowsRep.Filtered {
			t.Errorf("%v: rows dropped %d (tally %d), blocks dropped %d", dist,
				rowsRep.Filtered, rowsTally.Snapshot().PointsPruned, blocksRep.Filtered)
		}
	}
}

// A record-oriented substrate routes point by point and has no task
// position to offer: every survivor of a Positional rule goes to group
// 0, and nothing is lost.
func TestPositionalRouteIsTotal(t *testing.T) {
	ds := gen.Synthetic(gen.Correlated, 2000, 3, 4)
	r := learnRule(t, positionalSpec(), ds)
	out := r.MapChunk(ds.Points, nil)
	kept := 0
	for _, p := range ds.Points {
		gid, ok := r.Route(p)
		if ok {
			kept++
		}
		if gid != 0 {
			t.Fatalf("Route(%v) = group %d", p, gid)
		}
	}
	if want := len(ds.Points) - int(out.Filtered); kept != want || out.Filtered == 0 {
		t.Errorf("Route kept %d rows, the map task kept %d (filtered %d)", kept, want, out.Filtered)
	}
	if _, err := r.Data(); err == nil {
		t.Error("positional rule serialized")
	}
}

// With the filter disabled the survivor arenas are sized to the chunk,
// and every row comes back encoded.
func TestPositionalWithoutFilter(t *testing.T) {
	ds := gen.Synthetic(gen.Correlated, 500, 3, 6)
	spec := positionalSpec()
	spec.DisableSZBFilter = true
	r := learnRule(t, spec, ds)
	out := r.MapBlock(point.BlockOf(ds.Dims, ds.Points), nil)
	if out.Filtered != 0 || len(out.Groups) != 1 || out.Groups[0].Len() != 500 || out.Groups[0].ZCol.Len() != 500 {
		t.Errorf("filtered=%d groups=%d", out.Filtered, len(out.Groups))
	}
}

// LocalExec splits a pairwise Z-merge over its idle workers; the result
// must be the merge MergeGroupsZ computes, as a set, with a column that
// still lines up — including when one side is empty or the sides share
// coordinate-equal rows.
func TestSplitMergeMatchesMergeGroupsZ(t *testing.T) {
	ds := gen.Synthetic(gen.AntiCorrelated, 4000, 5, 8)
	spec := positionalSpec()
	r := learnRule(t, spec, ds)
	half := func(lo, hi int) Group {
		return r.LocalSkylineGroup(Group{Block: point.BlockOf(ds.Dims, ds.Points[lo:hi])}, nil)
	}
	a, b := half(0, 2000), half(2000, 4000)
	dup := half(0, 2000) // coordinate-equal to a: neither copy dominates the other
	empty := Group{Block: point.Block{Dims: ds.Dims}}
	ex := NewLocalExec(4)
	for name, pair := range map[string][]Group{"a+b": {a, b}, "a+a": {a, dup}, "a+empty": {a, empty}, "empty+b": {empty, b}} {
		if !r.splittable([][]Group{pair}) {
			t.Fatalf("%s: pairwise Pareto Z-merge not splittable", name)
		}
		outs, err := ex.RunMerges(context.Background(), r, [][]Group{pair}, nil)
		if err != nil {
			t.Fatal(err)
		}
		want := r.MergeGroupsZ(pair, nil)
		sameSet(t, outs[0].Points(), want.Points(), name)
		zc := r.Encoder().EncodeBlock(zorder.ZCol{}, outs[0].Block)
		if outs[0].ZCol.Len() != outs[0].Len() || string(mustBinary(t, zc)) != string(mustBinary(t, outs[0].ZCol)) {
			t.Errorf("%s: merged column does not match its rows", name)
		}
	}
	// Three groups in one task, or a recompute merge, stay on the plain path.
	if r.splittable([][]Group{{a, b, dup}}) {
		t.Error("three-way merge reported splittable")
	}
	spec.Merge = MergeZS
	if learnRule(t, spec, ds).splittable([][]Group{{a, b}}) {
		t.Error("ZS recompute merge reported splittable")
	}
}

func mustBinary(t *testing.T, m interface{ MarshalBinary() ([]byte, error) }) []byte {
	t.Helper()
	b, err := m.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return b
}
