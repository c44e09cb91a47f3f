package zskyline

import (
	"bytes"
	"context"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"zskyline/internal/codec"
)

func mustRelation(t *testing.T, attrs []string, rows [][]float64) *Relation {
	t.Helper()
	rel, err := NewRelation(attrs, rows)
	if err != nil {
		t.Fatal(err)
	}
	return rel
}

func TestRelationValidation(t *testing.T) {
	if _, err := NewRelation(nil, nil); err == nil {
		t.Error("no attributes accepted")
	}
	if _, err := NewRelation([]string{"a", "a"}, nil); err == nil {
		t.Error("duplicate attribute accepted")
	}
	if _, err := NewRelation([]string{""}, nil); err == nil {
		t.Error("empty attribute name accepted")
	}
	if _, err := NewRelation([]string{"a"}, [][]float64{{1, 2}}); err == nil {
		t.Error("ragged row accepted")
	}
	inf := 1.0
	inf /= 0
	if _, err := NewRelation([]string{"a"}, [][]float64{{inf}}); err == nil {
		t.Error("infinite value accepted")
	}
}

func TestQueryValidation(t *testing.T) {
	rel := mustRelation(t, []string{"price", "rating"}, [][]float64{{10, 4}})
	ctx := context.Background()
	if _, err := RunQuery(ctx, rel, Query{}); err == nil {
		t.Error("empty preferences accepted")
	}
	if _, err := RunQuery(ctx, rel, Query{Prefer: []Pref{{"nope", Min}}}); err == nil {
		t.Error("unknown attribute accepted")
	}
	if _, err := RunQuery(ctx, rel, Query{Prefer: []Pref{{"price", Min}, {"price", Max}}}); err == nil {
		t.Error("duplicate preference accepted")
	}
	if _, err := RunQuery(ctx, rel, Query{Prefer: []Pref{{"price", Ignore}}}); err == nil {
		t.Error("all-ignored query accepted")
	}
}

func TestQueryMinMaxSemantics(t *testing.T) {
	// Hotels: minimize price, maximize rating.
	rel := mustRelation(t, []string{"price", "rating"}, [][]float64{
		{100, 5}, // skyline: best rating
		{50, 3},  // skyline: cheap and decent
		{80, 4},  // skyline: middle tradeoff
		{90, 3},  // dominated by (80,4) and (50,3)
		{50, 2},  // dominated by (50,3)
	})
	res, err := RunQuery(context.Background(), rel, Query{Prefer: []Pref{
		{"price", Min}, {"rating", Max},
	}})
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 1, 2}
	if len(res.RowIDs) != len(want) {
		t.Fatalf("rows = %v, want %v", res.RowIDs, want)
	}
	for i, id := range want {
		if res.RowIDs[i] != id {
			t.Fatalf("rows = %v, want %v", res.RowIDs, want)
		}
	}
}

func TestQueryIgnoreProjectsSubspace(t *testing.T) {
	rel := mustRelation(t, []string{"a", "b", "noise"}, [][]float64{
		{1, 2, 999},
		{2, 1, 0},
		{3, 3, 0}, // dominated in (a,b)
	})
	res, err := RunQuery(context.Background(), rel, Query{Prefer: []Pref{
		{"a", Min}, {"b", Min}, {"noise", Ignore},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.RowIDs) != 2 || res.RowIDs[0] != 0 || res.RowIDs[1] != 1 {
		t.Fatalf("rows = %v", res.RowIDs)
	}
}

func TestQueryDuplicateRowsAllReturned(t *testing.T) {
	rel := mustRelation(t, []string{"x", "y"}, [][]float64{
		{1, 1}, {1, 1}, {2, 2},
	})
	res, err := RunQuery(context.Background(), rel, Query{Prefer: []Pref{
		{"x", Min}, {"y", Min},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.RowIDs) != 2 || res.RowIDs[0] != 0 || res.RowIDs[1] != 1 {
		t.Fatalf("duplicate handling: rows = %v", res.RowIDs)
	}
}

// Rows map back to the skyline by their exact bits: a row a rounded
// rendering confuses with its dominator is not returned for it, and
// rows equal as floats but not as bits (0 and -0 under Max) are both
// skyline rows, each returned once.
func TestQueryRowIDsByExactBits(t *testing.T) {
	for _, tc := range []struct {
		name string
		dirs []Direction
		rows [][]float64
		want []int
	}{
		{"dominated near-duplicate", []Direction{Min, Min}, [][]float64{{1.0000001, 1}, {1, 1}}, []int{1}},
		{"exact duplicate", []Direction{Min, Min}, [][]float64{{1, 1}, {1, 1}}, []int{0, 1}},
		{"signed zero under Max", []Direction{Max, Min}, [][]float64{{0, 1}, {math.Copysign(0, -1), 1}}, []int{0, 1}},
	} {
		rel := mustRelation(t, []string{"x", "y"}, tc.rows)
		res, err := RunQuery(context.Background(), rel, Query{Prefer: []Pref{{"x", tc.dirs[0]}, {"y", tc.dirs[1]}}})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !slices.Equal(res.RowIDs, tc.want) {
			t.Fatalf("%s: rows = %v, want %v", tc.name, res.RowIDs, tc.want)
		}
	}
}

func TestQueryEmptyRelation(t *testing.T) {
	res, err := RunQuery(context.Background(), nil, Query{})
	if err != nil || len(res.RowIDs) != 0 {
		t.Fatalf("nil relation: %v %v", res, err)
	}
}

// Property: RunQuery with all-Min preferences equals the sequential
// skyline row set.
func TestQueryMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 10; trial++ {
		n, d := 500+rng.Intn(1500), 2+rng.Intn(4)
		rows := make([][]float64, n)
		pts := make([]Point, n)
		for i := range rows {
			row := make([]float64, d)
			for k := range row {
				row[k] = rng.Float64()
			}
			rows[i] = row
			pts[i] = Point(row)
		}
		attrs := make([]string, d)
		prefs := make([]Pref, d)
		for k := range attrs {
			attrs[k] = string(rune('a' + k))
			prefs[k] = Pref{attrs[k], Min}
		}
		rel := mustRelation(t, attrs, rows)
		res, err := RunQuery(context.Background(), rel, Query{Prefer: prefs})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.RowIDs) != len(SequentialSkyline(pts)) {
			t.Fatalf("query rows %d != sequential %d", len(res.RowIDs), len(SequentialSkyline(pts)))
		}
		// Every returned row must be non-dominated.
		for _, id := range res.RowIDs {
			for _, q := range pts {
				if Dominates(q, pts[id]) {
					t.Fatalf("row %d is dominated", id)
				}
			}
		}
	}
}

func TestDirectionString(t *testing.T) {
	if Min.String() != "min" || Max.String() != "max" || Ignore.String() != "ignore" {
		t.Error("direction names")
	}
}

func TestFacadeExtensions(t *testing.T) {
	// Maintainer.
	m, err := NewUnitMaintainer(2, 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Insert([]Point{{0.5, 0.5}, {0.2, 0.8}}); err != nil {
		t.Fatal(err)
	}
	if m.Size() != 2 {
		t.Errorf("maintainer size = %d", m.Size())
	}

	// Ranking.
	score, err := WeightedSum([]float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	top := TopKByScore([]Point{{3, 3}, {1, 1}}, 1, score)
	if len(top) != 1 || top[0].Score != 2 {
		t.Errorf("top = %+v", top)
	}
	ranked, err := TopKByDominance([]Point{{0.1, 0.1}}, []Point{{0.1, 0.1}, {0.5, 0.5}}, 2, 8, 1)
	if err != nil || len(ranked) != 1 || ranked[0].Score != 1 {
		t.Errorf("dominance rank = %+v err=%v", ranked, err)
	}

	// Distributed.
	ws, err := StartWorker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ws.Close()
	ds := Generate(Independent, 2000, 3, 3)
	sky, err := DistributedSkyline(context.Background(), ds, []string{ws.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	if len(sky) != len(SequentialSkyline(ds.Points)) {
		t.Errorf("distributed skyline %d points", len(sky))
	}
}

func TestFacadeKDomEstimateWindow(t *testing.T) {
	// k-dominant skyline shrinks the full skyline.
	ds := Generate(AntiCorrelated, 500, 6, 5)
	full, err := KDominantSkyline(ds.Points, 6)
	if err != nil {
		t.Fatal(err)
	}
	reduced, err := KDominantSkyline(ds.Points, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(reduced) > len(full) {
		t.Errorf("k=4 grew the skyline: %d > %d", len(reduced), len(full))
	}
	if !KDominates(Point{0, 0, 9}, Point{1, 1, 0}, 2) {
		t.Error("KDominates facade broken")
	}

	// Estimation.
	est, err := EstimateSkylineSize(ds.Points, 0.2, 1)
	if err != nil || est.Scaled <= 0 {
		t.Errorf("estimate: %+v %v", est, err)
	}
	if ExpectedSkylineSize(1000, 3) <= 1 {
		t.Error("analytic estimate degenerate")
	}

	// Sliding window.
	w, err := NewWindowSkyline(100, 2, 10, []float64{0, 0}, []float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range Generate(Independent, 300, 2, 9).Points {
		if _, err := w.Push(p); err != nil {
			t.Fatal(err)
		}
	}
	if w.Len() != 100 || len(w.Current()) == 0 {
		t.Errorf("window: len=%d sky=%d", w.Len(), len(w.Current()))
	}
}

func TestFacadeParallelSkyline(t *testing.T) {
	ds := Generate(AntiCorrelated, 5000, 4, 3)
	got, err := ParallelSkyline(ds, ParallelOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	want := SequentialSkyline(ds.Points)
	if len(got) != len(want) {
		t.Fatalf("parallel %d points, want %d", len(got), len(want))
	}
}

func TestFacadeSubspace(t *testing.T) {
	ds := Generate(Independent, 400, 4, 11)
	ids, err := SubspaceSkyline(ds, []int{0, 2})
	if err != nil || len(ids) == 0 {
		t.Fatalf("subspace: %v %v", ids, err)
	}
	cube, err := ComputeSkyCube(ds, 4)
	if err != nil || len(cube.Skylines) != 15 {
		t.Fatalf("cube: %v %v", cube, err)
	}
	full, _ := cube.Of([]int{0, 1, 2, 3})
	if len(full) != len(SequentialSkyline(ds.Points)) {
		t.Errorf("full-space cube slice %d != skyline", len(full))
	}
}

func TestRunGroupedQuery(t *testing.T) {
	rel := mustRelation(t, []string{"city", "price", "rating"}, [][]float64{
		{1, 100, 5}, // city 1
		{1, 50, 3},
		{1, 120, 4}, // dominated within city 1 by (100,5)
		{2, 30, 2},  // city 2
		{2, 40, 5},
		{2, 35, 1}, // dominated by (30,2)
	})
	q := Query{Prefer: []Pref{{"price", Min}, {"rating", Max}}}
	res, err := RunGroupedQuery(context.Background(), rel, "city", q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) != 2 {
		t.Fatalf("groups = %v", res.Groups)
	}
	want1 := []int{0, 1}
	want2 := []int{3, 4}
	for i, id := range res.Groups[1] {
		if id != want1[i] {
			t.Fatalf("city 1 skyline = %v, want %v", res.Groups[1], want1)
		}
	}
	for i, id := range res.Groups[2] {
		if id != want2[i] {
			t.Fatalf("city 2 skyline = %v, want %v", res.Groups[2], want2)
		}
	}
	// Validation.
	if _, err := RunGroupedQuery(context.Background(), rel, "nope", q); err == nil {
		t.Error("unknown key attribute accepted")
	}
	bad := Query{Prefer: []Pref{{"city", Min}, {"price", Min}}}
	if _, err := RunGroupedQuery(context.Background(), rel, "city", bad); err == nil {
		t.Error("preference on grouping attribute accepted")
	}
	empty, err := RunGroupedQuery(context.Background(), nil, "city", q)
	if err != nil || len(empty.Groups) != 0 {
		t.Errorf("nil relation: %v %v", empty, err)
	}
}

func TestFacadeApproxAndOutOfCore(t *testing.T) {
	ds := Generate(AntiCorrelated, 2000, 3, 15)
	eps, err := EpsilonSkyline(ds.Points, 0.2)
	if err != nil || len(eps) == 0 {
		t.Fatalf("epsilon: %d %v", len(eps), err)
	}
	full := SequentialSkyline(ds.Points)
	if len(eps) >= len(full) && len(full) > 10 {
		t.Errorf("epsilon skyline %d not smaller than full %d", len(eps), len(full))
	}
	reps, err := RepresentativeSkyline(ds.Points, 5)
	if err != nil || len(reps) != 5 {
		t.Fatalf("representative: %d %v", len(reps), err)
	}

	path := filepath.Join(t.TempDir(), "data.zsky")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := codec.WriteBinary(f, ds); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := SkylineFile(path, OutOfCoreOptions{BatchSize: 300})
	if err != nil {
		t.Fatal(err)
	}
	samePoints(t, "SkylineFile", got, full)
	if _, err := SkylineFile(filepath.Join(t.TempDir(), "missing.zsky"), OutOfCoreOptions{}); err == nil {
		t.Error("missing file accepted")
	}
}

func TestFacadeMaintainerPersistence(t *testing.T) {
	m, err := NewUnitMaintainer(2, 8)
	if err != nil {
		t.Fatal(err)
	}
	m.Insert([]Point{{0.2, 0.8}, {0.8, 0.2}})
	var buf bytes.Buffer
	if err := SaveMaintainer(m, &buf); err != nil {
		t.Fatal(err)
	}
	got, err := LoadMaintainer(&buf)
	if err != nil || got.Size() != 2 {
		t.Fatalf("restored: %v size=%d", err, got.Size())
	}
}

// KDominantSkyline bounds k by the input's width; empty input has an
// empty skyline under any k.
func TestKDominantSkylineValidation(t *testing.T) {
	pts := []Point{{1, 2}}
	if _, err := KDominantSkyline(pts, 0); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := KDominantSkyline(pts, 3); err == nil {
		t.Error("k>d accepted")
	}
	got, err := KDominantSkyline(nil, 1)
	if err != nil || got != nil {
		t.Errorf("empty input: %v %v", got, err)
	}
}
