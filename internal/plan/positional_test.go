package plan

import (
	"context"
	"testing"

	"zskyline/internal/gen"
	"zskyline/internal/metrics"
	"zskyline/internal/point"
	"zskyline/internal/seq"
)

func positionalSpec() *Spec {
	spec := validSpec()
	spec.Strategy = Positional
	spec.MapTasks = 5
	return spec
}

// A Positional run maps row views in place (Run) or blocks read from a
// file (RunFile). Both must be exact, drop the same rows, and report
// one group per map task.
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
		blocksSky, blocksRep, err := RunFile(context.Background(), spec, writeZSKY(t, ds), NewLocalExec(3), blocksTally)
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

// Routed point by point, every survivor of a Positional rule goes to
// group 0, and the router keeps exactly the rows the map task keeps.
func TestPositionalRouteIsTotal(t *testing.T) {
	ds := gen.Synthetic(gen.Correlated, 2000, 3, 4)
	r := learnRule(t, positionalSpec(), ds)
	out := r.MapBlock(point.BlockOf(ds.Dims, ds.Points), nil)
	rt, kept := r.newRouter(), 0
	for _, p := range ds.Points {
		gid, ok := rt.route(p)
		if ok {
			kept++
		}
		if gid != 0 {
			t.Fatalf("route(%v) = group %d", p, gid)
		}
	}
	if want := len(ds.Points) - int(out.Filtered); kept != want || out.Filtered == 0 {
		t.Errorf("route kept %d rows, the map task kept %d (filtered %d)", kept, want, out.Filtered)
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

func mustBinary(t *testing.T, m interface{ MarshalBinary() ([]byte, error) }) []byte {
	t.Helper()
	b, err := m.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return b
}
