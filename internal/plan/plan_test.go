package plan

import (
	"bytes"
	"context"
	"encoding/gob"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"zskyline/internal/dominance"
	"zskyline/internal/gen"
	"zskyline/internal/metrics"
	"zskyline/internal/point"
	"zskyline/internal/sample"
	"zskyline/internal/seq"
	"zskyline/internal/zorder"
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
	for _, s := range []Strategy{Grid, Angle, Random, NaiveZ, ZHG, ZDG, Strategy(42)} {
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

// mapped builds the output of a map task whose input is gs's rows, in
// order, each routed to its group, with its Z-address when gs carry
// columns (all or none do), and filtered dropped rows. Each group's rows
// fill a list chunk of their own.
func mapped(filtered int64, gs ...Group) MapOutput {
	w := gs[0].ZCol.Words
	out := MapOutput{Filtered: filtered, words: w, dims: gs[0].Block.Dims}
	var in []point.Point
	for _, g := range gs {
		out.groups = max(out.groups, g.Gid+1)
		l := newRouted(g.Len(), w)
		for i := 0; i < g.Len(); i++ {
			l.rows = append(l.rows, int32(len(in)))
			l.gids = append(l.gids, int32(g.Gid))
			in = append(in, g.Block.Row(i))
			if w > 0 {
				l.z.AppendAddr(g.ZCol.At(i))
			}
		}
		out.lists = append(out.lists, l)
	}
	out.row = func(i int) point.Point { return in[i] }
	return out
}

func TestShuffleDeterministicOrder(t *testing.T) {
	outs := []MapOutput{
		mapped(2, NewGroup(3, 1, []point.Point{{1}}), NewGroup(1, 1, []point.Point{{2}})),
		mapped(1, NewGroup(1, 1, []point.Point{{3}}), NewGroup(0, 1, []point.Point{{4}})),
	}
	groups, filtered := Shuffle(outs)
	if filtered != 3 {
		t.Errorf("filtered = %d, want 3", filtered)
	}
	wantOrder := []int{0, 1, 3}
	if len(groups) != len(wantOrder) {
		t.Fatalf("groups = %d, want %d", len(groups), len(wantOrder))
	}
	for i, gid := range wantOrder {
		if groups[i].Gid != gid {
			t.Errorf("group[%d].Gid = %d, want %d (ascending id order)", i, groups[i].Gid, gid)
		}
	}
	if groups[1].Len() != 2 {
		t.Errorf("group 1 holds %d points, want 2 (concatenated)", groups[1].Len())
	}
}

// Shuffle counts a group's rows before it copies them: every group, fed
// by several map outputs or by one, gets one block and one column at
// exactly their summed size, holding its rows in output order, then in
// each output's routing order.
func TestShuffleAllocatesOnce(t *testing.T) {
	withZ := func(g Group) Group {
		g.ZCol = zorder.ZCol{Words: 1}
		for i := 0; i < g.Len(); i++ {
			g.ZCol.AppendAddr(zorder.ZAddr{uint64(i)})
		}
		return g
	}
	rows := func(n int) []point.Point {
		pts := make([]point.Point, n)
		for i := range pts {
			pts[i] = point.Point{float64(i), float64(n)}
		}
		return pts
	}
	outs := []MapOutput{
		mapped(0, withZ(NewGroup(0, 2, rows(3))), withZ(NewGroup(1, 2, rows(5)))),
		mapped(0, withZ(NewGroup(0, 2, rows(4)))),
		mapped(0, withZ(NewGroup(0, 2, rows(6)))),
	}
	groups, _ := Shuffle(outs)
	if len(groups) != 2 {
		t.Fatalf("%d groups, want 2", len(groups))
	}
	for _, tc := range []struct {
		g    Group
		rows int
	}{{groups[0], 13}, {groups[1], 5}} {
		g := tc.g
		if g.Len() != tc.rows || cap(g.Block.Data) != tc.rows*2 || g.ZCol.Len() != tc.rows || cap(g.ZCol.Data) != tc.rows {
			t.Errorf("group %d: %d rows, block cap %d, column %d rows cap %d; want %d rows at exact capacity",
				g.Gid, g.Len(), cap(g.Block.Data), g.ZCol.Len(), cap(g.ZCol.Data), tc.rows)
		}
	}
	multi := groups[0]
	if !multi.Block.Row(3).Equal(point.Point{0, 4}) || !multi.Block.Row(7).Equal(point.Point{0, 6}) || multi.ZCol.At(12)[0] != 5 {
		t.Errorf("group 0 rows out of output order: %v %v %v", multi.Block.Row(3), multi.Block.Row(7), multi.ZCol.At(12))
	}
}

// Shuffle's output must not depend on the order map outputs arrive in:
// every permutation of the same outputs gives the same group ids in the
// same order, each group holding the same rows.
func TestShuffleOrderIgnoresMapOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	outs := make([]MapOutput, 6)
	for i := range outs {
		var gs []Group
		for _, gid := range rng.Perm(9)[:1+rng.Intn(4)] {
			pts := make([]point.Point, 1+rng.Intn(3))
			for k := range pts {
				pts[k] = point.Point{float64(i), float64(gid), float64(k)}
			}
			gs = append(gs, NewGroup(gid, 3, pts))
		}
		outs[i] = mapped(int64(i), gs...)
	}
	key := func(groups []Group) string {
		var b strings.Builder
		for _, g := range groups {
			rows := make([]string, g.Len())
			for r := range rows {
				rows[r] = fmt.Sprint(g.Block.Row(r))
			}
			sort.Strings(rows)
			fmt.Fprintf(&b, "%d:%v ", g.Gid, rows)
		}
		return b.String()
	}
	wantGroups, wantFiltered := Shuffle(outs)
	want := key(wantGroups)
	for trial := 0; trial < 20; trial++ {
		perm := append([]MapOutput(nil), outs...)
		rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		groups, filtered := Shuffle(perm)
		if got := key(groups); got != want || filtered != wantFiltered {
			t.Fatalf("trial %d: permuted outputs gave %s (filtered %d), want %s (filtered %d)", trial, got, filtered, want, wantFiltered)
		}
	}
}

// learnRule builds a rule from a fresh sample of ds, as Run does.
func learnRule(t testing.TB, spec *Spec, ds *point.Dataset) *Rule {
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

// TestRuleDataRoundTrip broadcasts each strategy's rule through gob —
// the dist wire format — and checks the compiled copy reduces and
// merges exactly as the original: the same local skyline of every
// routed group and the same merge of them, rows and Z-address columns
// byte for byte. The baselines' groups arrive without a column, so both
// copies encode them under the one bounds encoder RuleData carries.
func TestRuleDataRoundTrip(t *testing.T) {
	ds := gen.Synthetic(gen.AntiCorrelated, 2000, 4, 5)
	for _, st := range []Strategy{Grid, Angle, Random, NaiveZ, ZHG, ZDG} {
		spec := validSpec()
		spec.Strategy = st
		r := learnRule(t, spec, ds)
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(r.Data()); err != nil {
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
				t.Fatalf("%v %s: the broadcast rule computes %d rows, the original %d", st, what, b.Len(), a.Len())
			}
		}
		routed, _ := Shuffle([]MapOutput{r.MapBlock(point.BlockOf(ds.Dims, ds.Points), nil)})
		if len(routed) < 2 {
			t.Fatalf("%v: %d routed groups: nothing to merge", st, len(routed))
		}
		var cand1, cand2 []Group
		for _, g := range routed {
			c1, c2 := r.LocalSkylineGroup(g, nil), r2.LocalSkylineGroup(g, nil)
			same(c1, c2, "local skyline")
			cand1, cand2 = append(cand1, c1), append(cand2, c2)
		}
		same(r.mergeGroupsZ(Whole(cand1), nil), r2.mergeGroupsZ(Whole(cand2), nil), "merge")
	}
}

// TestLocalSkylineRowsSelectCandidates: per relation, local kernel and
// merge, LocalSkylineRows names each row of a group's exact skyline
// once, by its position in the group, and Candidates copies those rows
// out with the Z-address column exactly when the relation is Pareto and
// the merge reads one: the rows' own encoding.
func TestLocalSkylineRowsSelectCandidates(t *testing.T) {
	ds := gen.Synthetic(gen.AntiCorrelated, 3000, 4, 13)
	for _, desc := range []dominance.Descriptor{{},
		{Kind: dominance.KindFlex, Weights: [][]float64{{1, 1, 1, 1}, {3, 1, 1, 1}}},
		{Kind: dominance.KindKDom, K: 3}} {
		prov, err := desc.Provider()
		if err != nil {
			t.Fatal(err)
		}
		for _, local := range []LocalAlgo{ZS, SB} {
			for _, merge := range []MergeAlgo{MergeZM, MergeSB} {
				spec := validSpec()
				spec.Dominance, spec.Local, spec.Merge = desc, local, merge
				r := learnRule(t, spec, ds)
				label := fmt.Sprintf("%s/%v/%v", prov.Name(), local, merge)
				groups, _ := Shuffle([]MapOutput{r.MapBlock(point.BlockOf(ds.Dims, ds.Points), nil)})
				for _, g := range groups {
					rows := r.LocalSkylineRows(g, nil)
					seen := make(map[int32]bool, len(rows))
					for _, p := range rows {
						if p < 0 || int(p) >= g.Len() || seen[p] {
							t.Fatalf("%s: group %d of %d rows: position %d out of range or repeated", label, g.Gid, g.Len(), p)
						}
						seen[p] = true
					}
					got := r.Candidates(g, rows)
					if got.Gid != g.Gid {
						t.Fatalf("%s: group %d's candidates carry gid %d", label, g.Gid, got.Gid)
					}
					wantZ := dominance.IsPareto(prov) && merge != MergeSB && got.Len() > 0
					if wantZ != (got.ZCol.Len() == got.Len() && got.Len() > 0) || (!wantZ && got.ZCol.Len() != 0) {
						t.Fatalf("%s: group %d: %d addresses for %d candidates", label, g.Gid, got.ZCol.Len(), got.Len())
					}
					if wantZ && string(mustBinary(t, got.ZCol)) != string(mustBinary(t, r.Encoder().EncodeBlock(zorder.ZCol{}, got.Block))) {
						t.Fatalf("%s: group %d: the candidates' column is not their encoding", label, g.Gid)
					}
					sky, oracle := got.Block.Points(), dominance.BruteForce(prov, g.Block.Points())
					point.SortLexicographic(sky)
					point.SortLexicographic(oracle)
					if fmt.Sprint(sky) != fmt.Sprint(oracle) {
						t.Fatalf("%s: group %d: %d candidates, the oracle %d", label, g.Gid, len(sky), len(oracle))
					}
				}
			}
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

func mustBinary(t *testing.T, m interface{ MarshalBinary() ([]byte, error) }) []byte {
	t.Helper()
	b, err := m.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return b
}
