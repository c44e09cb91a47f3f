package plan

import (
	"context"
	"fmt"
	"testing"

	"zskyline/internal/dominance"
	"zskyline/internal/gen"
	"zskyline/internal/metrics"
	"zskyline/internal/point"
	"zskyline/internal/zorder"
)

// positionalRelations are the relations the positional phase 3 is held
// to the copy path under: Pareto; k-dominance, not transitive, whose
// reduce and verify close copies (here k = 5 leaves at most a few
// candidates and an empty skyline, k = 6 up to 334 candidates and a
// skyline of seven rows);
// and a two-vector flex, transitive but not Pareto, whose candidates
// travel without a column.
func positionalRelations(dims int) map[string]dominance.Descriptor {
	w1, w2 := make([]float64, dims), make([]float64, dims)
	for k := range w1 {
		w1[k], w2[k] = 1, 1
	}
	w2[0] = 3
	return map[string]dominance.Descriptor{
		"pareto": {},
		"kdom:5": {Kind: dominance.KindKDom, K: 5},
		"kdom:6": {Kind: dominance.KindKDom, K: 6},
		"flex":   {Kind: dominance.KindFlex, Weights: [][]float64{w1, w2}},
	}
}

// copiedRun is Run with its reduce copying each local skyline out
// (LocalSkylineGroup) and phase 3 merging the copies (MergePhase), the
// way the pipeline ran before its reduces answered by position. It
// returns the skyline and the candidate count.
func copiedRun(t *testing.T, spec *Spec, ds *point.Dataset, ex *LocalExec, tally *metrics.Tally) ([]point.Point, int) {
	t.Helper()
	ctx := context.Background()
	d, in := newDriver(spec, ex, tally), memInput{ds}
	r, cuts, err := d.learn(ctx, in)
	if err != nil {
		t.Fatal(err)
	}
	groups, _, err := in.mapCuts(ctx, d, r, cuts)
	if err != nil {
		t.Fatal(err)
	}
	cands := 0
	for i, g := range groups {
		groups[i] = r.LocalSkylineGroup(g, tally)
		cands += groups[i].Len()
	}
	sky, err := MergePhase(ctx, ex, r, groups, false, tally)
	if err != nil {
		t.Fatal(err)
	}
	if sky, err = d.verify(ctx, r, sky, in); err != nil {
		t.Fatal(err)
	}
	return sky, cands
}

// TestPositionalPhase3MatchesCopies: phase 3 gathers each group's local
// skyline by position, straight from the group the map gathered. On
// anti-correlated n = 16,000, d = 8 rows, under every relation of
// positionalRelations, at M = 1 (one group), 2 and 4 (a tree per
// group), 5 and 32 (one tree) and with the ZS and SB recompute merges,
// Run must return the copy path's rows, row for row and in order, with
// its candidate count and its tally.
func TestPositionalPhase3MatchesCopies(t *testing.T) {
	ds := gen.Synthetic(gen.AntiCorrelated, 16000, 8, 42)
	type arm struct {
		m     int
		merge MergeAlgo
	}
	arms := []arm{{1, MergeZM}, {2, MergeZM}, {4, MergeZM}, {5, MergeZM}, {32, MergeZM}, {4, MergeZS}, {5, MergeSB}}
	if raceDetector {
		arms = []arm{{2, MergeZM}, {5, MergeZM}, {4, MergeZS}}
	}
	ex := NewLocalExec(2)
	for name, desc := range positionalRelations(ds.Dims) {
		for _, a := range arms {
			label := fmt.Sprintf("%s/M=%d/%v", name, a.m, a.merge)
			spec := &Spec{Strategy: ZDG, Local: ZS, Merge: a.merge, M: a.m, Delta: 4,
				SampleRatio: 0.02, Bits: 16, Seed: 1, MapTasks: 4, Dominance: desc}
			var pos, cp metrics.Tally
			got, rep, err := Run(context.Background(), spec, ds, ex, &pos)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			want, cands := copiedRun(t, spec, ds, ex, &cp)
			if len(got) != len(want) {
				t.Fatalf("%s: %d rows, the copy path %d", label, len(got), len(want))
			}
			for i := range got {
				if !got[i].Equal(want[i]) {
					t.Fatalf("%s: row %d is %v, the copy path's %v", label, i, got[i], want[i])
				}
			}
			if rep.Candidates != cands {
				t.Errorf("%s: %d candidates, the copy path %d", label, rep.Candidates, cands)
			}
			if g, w := pos.Snapshot(), cp.Snapshot(); g != w {
				t.Errorf("%s: tally %+v, the copy path %+v", label, g, w)
			}
		}
	}
}

// copiedAdd is Fold.Add with the batch's skyline copied out first
// (LocalSkylineGroup) and then copied into the merge's store beside the
// kept rows.
func copiedAdd(f *Fold, g Group) (added int) {
	if g.Len() == 0 {
		return 0
	}
	batch := f.r.LocalSkylineGroup(g, f.tally)
	st, ranges := f.r.candidateStore(Whole([]Group{f.sky, batch}))
	rows := f.r.zmerge(st, ranges, f.tally)
	for _, row := range rows {
		if row >= ranges[1][0] {
			added++
		}
	}
	f.sky = Group{}
	f.sky.Block, f.sky.ZCol = st.CompactRows(rows)
	if !f.r.pareto() {
		f.sky.ZCol = zorder.ZCol{}
	}
	return added
}

// TestFoldPositionalMatchesCopies: a Fold gathers each batch's skyline
// into its merge's store by position. Fed the anti-correlated rows of
// TestPositionalPhase3MatchesCopies in eight batches, under the
// transitive relations a Fold accepts and with the Z-merge and SB merges
// (SB candidates travel without a column), it must keep the copy path's
// skyline — rows, order and column — and report the same added counts
// and tally after every batch.
func TestFoldPositionalMatchesCopies(t *testing.T) {
	ds := gen.Synthetic(gen.AntiCorrelated, 16000, 8, 42)
	for name, desc := range positionalRelations(ds.Dims) {
		if desc.Kind == dominance.KindKDom {
			continue // not transitive: a Fold refuses it
		}
		for _, merge := range []MergeAlgo{MergeZM, MergeSB} {
			label := fmt.Sprintf("%s/%v", name, merge)
			spec := &Spec{Strategy: ZDG, Local: ZS, Merge: merge, M: 4, Delta: 4,
				SampleRatio: 0.02, Bits: 16, Seed: 1, Dominance: desc}
			r := learnRule(t, spec, ds)
			var pos, cp metrics.Tally
			fp, fc := NewFold(r, &pos), NewFold(r, &cp)
			for k, b := range point.BlockOf(ds.Dims, ds.Points).SplitN(8) {
				g := Group{Block: b}
				if got, want := fp.Add(g), copiedAdd(fc, g); got != want {
					t.Fatalf("%s: batch %d added %d rows, the copy path %d", label, k, got, want)
				}
				gs, ws := fp.Skyline(), fc.Skyline()
				if string(mustBinary(t, gs.Block)) != string(mustBinary(t, ws.Block)) ||
					string(mustBinary(t, gs.ZCol)) != string(mustBinary(t, ws.ZCol)) {
					t.Fatalf("%s: batch %d: skyline of %d rows differs from the copy path's %d", label, k, gs.Len(), ws.Len())
				}
				if g, w := pos.Snapshot(), cp.Snapshot(); g != w {
					t.Fatalf("%s: batch %d: tally %+v, the copy path %+v", label, k, g, w)
				}
			}
		}
	}
}
