package plan

import (
	"bytes"
	"context"
	"encoding/gob"
	"fmt"
	"testing"

	"zskyline/internal/gen"
	"zskyline/internal/metrics"
	"zskyline/internal/point"
	"zskyline/internal/sample"
	"zskyline/internal/seq"
)

func validSpec() *Spec {
	return &Spec{
		Strategy:    ZDG,
		Local:       ZS,
		Merge:       MergeZM,
		M:           8,
		Delta:       2,
		SampleRatio: 0.1,
		Bits:        10,
		MapTasks:    4,
	}
}

func TestSpecValidate(t *testing.T) {
	bad := []func(*Spec){
		func(s *Spec) { s.M = 0 },
		func(s *Spec) { s.Delta = 0 },
		func(s *Spec) { s.SampleRatio = 0 },
		func(s *Spec) { s.SampleRatio = 1.5 },
		func(s *Spec) { s.Bits = 0 },
		func(s *Spec) { s.Bits = 99 },
	}
	for i, mutate := range bad {
		s := validSpec()
		mutate(s)
		if err := s.Validate(); err == nil {
			t.Errorf("bad spec %d accepted", i)
		}
	}
	if err := validSpec().Validate(); err != nil {
		t.Errorf("valid spec rejected: %v", err)
	}
}

func TestStringers(t *testing.T) {
	for _, s := range []Strategy{Grid, Angle, Random, NaiveZ, ZHG, ZDG, Positional, Strategy(42)} {
		if s.String() == "" {
			t.Errorf("strategy %d has empty name", int(s))
		}
	}
	for _, a := range []LocalAlgo{SB, ZS} {
		if a.String() == "" {
			t.Errorf("local algo %d has empty name", int(a))
		}
	}
	for _, m := range []MergeAlgo{MergeZM, MergeZS, MergeSB} {
		if m.String() == "" {
			t.Errorf("merge algo %d has empty name", int(m))
		}
	}
}

// Every input is cut into map tasks by one rule: ChunkSize rows each
// when set, else MapTasks near-equal ranges, one per row when rows are
// fewer; the cuts cover the rows in order.
func TestSpecCuts(t *testing.T) {
	for _, tc := range []struct {
		n, tasks, chunk int
		want            string
	}{
		{10, 3, 0, "[[0 3] [3 6] [6 10]]"},
		{10, 99, 0, "[[0 1] [1 2] [2 3] [3 4] [4 5] [5 6] [6 7] [7 8] [8 9] [9 10]]"},
		{10, 0, 0, "[[0 1] [1 2] [2 3] [3 5] [5 6] [6 7] [7 8] [8 10]]"},
		{10, 3, 4, "[[0 4] [4 8] [8 10]]"},
		{10, 3, 99, "[[0 10]]"},
		{0, 3, 0, "[]"},
		{0, 3, 4, "[]"},
	} {
		spec := &Spec{MapTasks: tc.tasks, ChunkSize: tc.chunk}
		if got := fmt.Sprint(spec.cuts(tc.n)); got != tc.want {
			t.Errorf("cuts(%d) with MapTasks=%d ChunkSize=%d = %s, want %s", tc.n, tc.tasks, tc.chunk, got, tc.want)
		}
	}
}

func TestShuffleDeterministicOrder(t *testing.T) {
	outs := []MapOutput{
		{Groups: []Group{NewGroup(3, 1, []point.Point{{1}}), NewGroup(1, 1, []point.Point{{2}})}, Filtered: 2},
		{Groups: []Group{NewGroup(1, 1, []point.Point{{3}}), NewGroup(0, 1, []point.Point{{4}})}, Filtered: 1},
	}
	groups, filtered := Shuffle(outs)
	if filtered != 3 {
		t.Errorf("filtered = %d, want 3", filtered)
	}
	wantOrder := []int{3, 1, 0}
	if len(groups) != len(wantOrder) {
		t.Fatalf("groups = %d, want %d", len(groups), len(wantOrder))
	}
	for i, gid := range wantOrder {
		if groups[i].Gid != gid {
			t.Errorf("group[%d].Gid = %d, want %d (first-seen order)", i, groups[i].Gid, gid)
		}
	}
	if groups[1].Len() != 2 {
		t.Errorf("group 1 holds %d points, want 2 (concatenated)", groups[1].Len())
	}
}

// learnRule builds a rule from a fresh sample of ds, as Run does.
func learnRule(t *testing.T, spec *Spec, ds *point.Dataset) *Rule {
	t.Helper()
	smp, err := sample.Ratio(ds.Points, spec.SampleRatio, spec.Seed)
	if err != nil {
		t.Fatal(err)
	}
	mins, maxs, err := ds.Bounds()
	if err != nil {
		t.Fatal(err)
	}
	r, err := Learn(spec, ds.Dims, mins, maxs, smp, nil)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestRuleDataRoundTrip broadcasts a rule through gob — the dist wire
// format — and checks the compiled copy reduces and merges exactly as
// the original: the same local skyline of every routed group and the
// same merge of them, rows and Z-address columns byte for byte.
func TestRuleDataRoundTrip(t *testing.T) {
	ds := gen.Synthetic(gen.AntiCorrelated, 2000, 4, 5)
	r := learnRule(t, validSpec(), ds)
	rd, err := r.Data()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(rd); err != nil {
		t.Fatal(err)
	}
	var back RuleData
	if err := gob.NewDecoder(&buf).Decode(&back); err != nil {
		t.Fatal(err)
	}
	r2, err := FromData(&back)
	if err != nil {
		t.Fatal(err)
	}
	same := func(a, b Group, what string) {
		t.Helper()
		if string(mustBinary(t, a.Block)) != string(mustBinary(t, b.Block)) ||
			string(mustBinary(t, a.ZCol)) != string(mustBinary(t, b.ZCol)) {
			t.Fatalf("%s: the broadcast rule computes %d rows, the original %d", what, b.Len(), a.Len())
		}
	}
	routed := r.MapBlock(point.BlockOf(ds.Dims, ds.Points), nil).Groups
	if len(routed) < 2 {
		t.Fatalf("%d routed groups: nothing to merge", len(routed))
	}
	var cand1, cand2 []Group
	for _, g := range routed {
		c1, c2 := r.LocalSkylineGroup(g, nil), r2.LocalSkylineGroup(g, nil)
		same(c1, c2, "local skyline")
		cand1, cand2 = append(cand1, c1), append(cand2, c2)
	}
	same(r.MergeGroupsZ(cand1, nil), r2.MergeGroupsZ(cand2, nil), "merge")
}

// Baseline rules close over in-memory partitioners; they must refuse
// to serialize rather than broadcast something non-executable.
func TestBaselineRulesDoNotSerialize(t *testing.T) {
	ds := gen.Synthetic(gen.Independent, 500, 3, 9)
	for _, st := range []Strategy{Grid, Angle, Random} {
		spec := validSpec()
		spec.Strategy = st
		r := learnRule(t, spec, ds)
		if _, err := r.Data(); err == nil {
			t.Errorf("%v rule serialized", st)
		}
	}
}

func TestUnknownStrategyRejected(t *testing.T) {
	spec := validSpec()
	spec.Strategy = Strategy(42)
	ds := gen.Synthetic(gen.Independent, 200, 2, 1)
	if _, _, err := Run(context.Background(), spec, ds, NewLocalExec(2), nil); err == nil {
		t.Error("unknown strategy accepted")
	}
}

func TestRunEmptyAndCancelled(t *testing.T) {
	sky, rep, err := Run(context.Background(), validSpec(), nil, NewLocalExec(2), nil)
	if err != nil || sky != nil || rep == nil || rep.Strategy != ZDG || rep.Merge != MergeZM {
		t.Errorf("empty run: %v %+v %v", sky, rep, err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ds := gen.Synthetic(gen.Independent, 1000, 3, 2)
	if _, _, err := Run(ctx, validSpec(), ds, NewLocalExec(2), nil); err == nil {
		t.Error("cancelled context accepted")
	}
}

// The report's counters must be internally consistent and the skyline
// exact, for every merge algorithm.
func TestRunReportAndMergeAlgos(t *testing.T) {
	ds := gen.Synthetic(gen.AntiCorrelated, 3000, 4, 11)
	want := seq.BruteForce(ds.Points)
	for _, merge := range []MergeAlgo{MergeZM, MergeZS, MergeSB} {
		spec := validSpec()
		spec.Merge = merge
		tally := &metrics.Tally{}
		sky, rep, err := Run(context.Background(), spec, ds, NewLocalExec(4), tally)
		if err != nil {
			t.Fatal(err)
		}
		sameSet(t, sky, want, "merge/"+merge.String())
		if rep.SkylineSize != len(sky) || rep.Candidates < len(sky) {
			t.Errorf("%v: report %+v", merge, rep)
		}
		if rep.Groups == 0 || rep.SampleSkySize == 0 || rep.Filtered == 0 || rep.Points != ds.Len() || rep.Merge != merge {
			t.Errorf("%v: phase-1 fields empty: %+v", merge, rep)
		}
		var out bytes.Buffer
		if _, err := rep.WriteTo(&out); err != nil {
			t.Fatal(err)
		}
		if want := min(repBudget, rep.SampleSkySize); rep.FilterRows != want {
			t.Errorf("%v: filter holds %d rows, want %d", merge, rep.FilterRows, want)
		}
		counts := fmt.Sprintf("points=%d skyline=%d candidates=%d filtered=%d routed=%d\n",
			ds.Len(), len(sky), rep.Candidates, rep.Filtered, int64(ds.Len())-rep.Filtered)
		filter := fmt.Sprintf(" sample=%d filter=%d\n", rep.SampleSize, rep.FilterRows)
		for _, want := range []string{"merge=" + merge.String() + "\n", counts, filter, "inputBalance: n=", "candidateBalance: n="} {
			if !bytes.Contains(out.Bytes(), []byte(want)) {
				t.Errorf("%v: report lacks %q:\n%s", merge, want, out.String())
			}
		}
		var perGroup int
		for _, n := range rep.PerGroupCandidates {
			perGroup += n
		}
		if perGroup != rep.Candidates {
			t.Errorf("%v: per-group sum %d != candidates %d", merge, perGroup, rep.Candidates)
		}
		if tally.Snapshot().DominanceTests == 0 {
			t.Errorf("%v: no dominance tests recorded", merge)
		}
	}
	spec := validSpec()
	spec.DisableSZBFilter = true
	_, rep, err := Run(context.Background(), spec, ds, NewLocalExec(4), nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.FilterRows != 0 {
		t.Errorf("filter off: %d filter rows, want 0", rep.FilterRows)
	}
}

func sameSet(t *testing.T, got, want []point.Point, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %d points, want %d", label, len(got), len(want))
	}
	g := append([]point.Point(nil), got...)
	w := append([]point.Point(nil), want...)
	point.SortLexicographic(g)
	point.SortLexicographic(w)
	for i := range g {
		if !g[i].Equal(w[i]) {
			t.Fatalf("%s: [%d] = %v, want %v", label, i, g[i], w[i])
		}
	}
}
