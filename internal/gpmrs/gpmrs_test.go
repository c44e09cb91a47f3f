package gpmrs

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
	"testing/quick"

	"zskyline/internal/gen"
	"zskyline/internal/point"
	"zskyline/internal/seq"
)

func sameSet(t *testing.T, got, want []point.Point, label string) {
	t.Helper()
	if err := diffSets(got, want); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
}

// diffSets describes the first difference between two point sets, or
// returns nil when they hold the same points.
func diffSets(got, want []point.Point) error {
	if len(got) != len(want) {
		return fmt.Errorf("got %d points, want %d", len(got), len(want))
	}
	g := append([]point.Point(nil), got...)
	w := append([]point.Point(nil), want...)
	point.SortLexicographic(g)
	point.SortLexicographic(w)
	for i := range g {
		if !g[i].Equal(w[i]) {
			return fmt.Errorf("[%d] = %v, want %v", i, g[i], w[i])
		}
	}
	return nil
}

func TestEmptyAndNil(t *testing.T) {
	sky, rep, err := Skyline(context.Background(), nil, Config{})
	if err != nil || sky != nil || rep == nil {
		t.Fatalf("nil dataset: %v %v %v", sky, rep, err)
	}
	sky, _, err = Skyline(context.Background(), &point.Dataset{Dims: 2}, Config{})
	if err != nil || len(sky) != 0 {
		t.Fatalf("empty dataset: %v %v", sky, err)
	}
}

func TestExactAcrossDistributions(t *testing.T) {
	for _, dist := range []gen.Distribution{gen.Independent, gen.Correlated, gen.AntiCorrelated} {
		for _, d := range []int{2, 4, 6} {
			ds := gen.Synthetic(dist, 3000, d, 11)
			want := seq.SB(ds.Points, nil)
			got, rep, err := Skyline(context.Background(), ds, Config{Workers: 4, Reducers: 5, SampleRatio: 0.05})
			if err != nil {
				t.Fatalf("%v/d=%d: %v", dist, d, err)
			}
			sameSet(t, got, want, dist.String())
			if rep.Candidates < len(want) {
				t.Errorf("%v/d=%d: %d candidates < %d skyline", dist, d, rep.Candidates, len(want))
			}
		}
	}
}

func TestExactHighDimensionalCap(t *testing.T) {
	// d > MaxGridDims: the grid covers only a prefix of dimensions; the
	// result must still be exact and no cell may be dropped.
	ds := gen.Synthetic(gen.Independent, 800, 15, 3)
	want := seq.BruteForce(ds.Points)
	got, rep, err := Skyline(context.Background(), ds, Config{Workers: 4, SampleRatio: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	sameSet(t, got, want, "d=15")
	if rep.UsedDims != MaxGridDims {
		t.Errorf("used dims = %d, want %d", rep.UsedDims, MaxGridDims)
	}
	if rep.DroppedCells != 0 {
		t.Errorf("dropped %d cells with partial grid; unsound", rep.DroppedCells)
	}
}

func TestCellFilterFires(t *testing.T) {
	// Correlated low-d data populates both extreme cells, so the
	// all-ones cell gets dropped.
	ds := gen.Synthetic(gen.Correlated, 5000, 3, 7)
	_, rep, err := Skyline(context.Background(), ds, Config{Workers: 4, SampleRatio: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if rep.DroppedCells == 0 || rep.FilteredPoints == 0 {
		t.Errorf("cell filter never fired: %+v", rep)
	}
}

func TestDuplicationGrowsWithDim(t *testing.T) {
	// GPMRS's replication overhead should grow with dimensionality —
	// the effect that makes it lose in Figure 12.
	dup := map[int]int64{}
	for _, d := range []int{3, 8} {
		ds := gen.Synthetic(gen.Independent, 4000, d, 9)
		_, rep, err := Skyline(context.Background(), ds, Config{Workers: 4, Reducers: 8, SampleRatio: 0.05})
		if err != nil {
			t.Fatal(err)
		}
		dup[d] = rep.DuplicatedRecords
	}
	if dup[8] <= dup[3] {
		t.Errorf("duplication did not grow with dim: %v", dup)
	}
}

func TestReportString(t *testing.T) {
	ds := gen.Synthetic(gen.Independent, 500, 3, 1)
	_, rep, err := Skyline(context.Background(), ds, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rep.String() == "" || rep.Total <= 0 {
		t.Errorf("report: %+v", rep)
	}
}

func TestDeterministic(t *testing.T) {
	ds := gen.Synthetic(gen.AntiCorrelated, 2000, 4, 13)
	a, _, err := Skyline(context.Background(), ds, Config{Workers: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := Skyline(context.Background(), ds, Config{Workers: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	sameSet(t, a, b, "rerun")
}

// quick property: GPMRS is exact for arbitrary sizes, dims and reducer
// counts.
func TestQuickGPMRSExact(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := 1 + r.Intn(6)
		n := 50 + r.Intn(800)
		ds := gen.Synthetic(gen.Distribution(r.Intn(3)), n, d, seed)
		got, _, err := Skyline(context.Background(), ds, Config{
			Workers:     1 + r.Intn(4),
			Reducers:    1 + r.Intn(8),
			SampleRatio: 0.05 + r.Float64()*0.3,
			Seed:        seed,
		})
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		if err := diffSets(got, seq.BruteForce(ds.Points)); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestCountsPinned pins every Report count on a fixed matrix. The
// values were captured from a MapReduce-engine implementation of the
// same two jobs; a change in any of them means the grid, the dropped
// cell, the candidates or the copies the scheme describes changed.
func TestCountsPinned(t *testing.T) {
	type pin struct {
		usedDims, nonEmpty, dropped int
		filtered                    int64
		candidates                  int
		duplicated                  int64
	}
	cases := []struct {
		dist     gen.Distribution
		d        int
		reducers int
		want     pin
	}{
		{gen.Independent, 3, 1, pin{3, 8, 1, 472, 160, 0}},
		{gen.Independent, 3, 5, pin{3, 8, 1, 472, 160, 210}},
		{gen.Independent, 8, 1, pin{8, 256, 1, 6, 2878, 0}},
		{gen.Independent, 8, 5, pin{8, 256, 1, 6, 2878, 10452}},
		{gen.Correlated, 3, 1, pin{3, 8, 1, 1395, 48, 0}},
		{gen.Correlated, 3, 5, pin{3, 8, 1, 1395, 48, 56}},
		{gen.Correlated, 8, 1, pin{8, 162, 1, 1254, 392, 0}},
		{gen.Correlated, 8, 5, pin{8, 162, 1, 1254, 392, 1120}},
		{gen.AntiCorrelated, 3, 1, pin{3, 8, 1, 66, 198, 0}},
		{gen.AntiCorrelated, 3, 5, pin{3, 8, 1, 66, 198, 342}},
		{gen.AntiCorrelated, 8, 1, pin{8, 253, 0, 0, 2824, 0}},
		{gen.AntiCorrelated, 8, 5, pin{8, 253, 0, 0, 2824, 10585}},
	}
	for _, tc := range cases {
		label := fmt.Sprintf("%v/d=%d/reducers=%d", tc.dist, tc.d, tc.reducers)
		ds := gen.Synthetic(tc.dist, 3000, tc.d, 29)
		sky, rep, err := Skyline(context.Background(), ds, Config{Workers: 3, Reducers: tc.reducers, SampleRatio: 0.05, Seed: 29})
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		got := pin{rep.UsedDims, rep.NonEmptyCells, rep.DroppedCells, rep.FilteredPoints, rep.Candidates, rep.DuplicatedRecords}
		if got != tc.want {
			t.Errorf("%s: counts %+v, want %+v", label, got, tc.want)
		}
		sameSet(t, sky, seq.SB(ds.Points, nil), label)
	}
}

// selfCancel is a context that cancels itself the second time a task
// pool asks whether it is done. Nothing before job 1's map fan-out
// consults the context, so with one worker the first map task runs
// and the second is never admitted.
type selfCancel struct {
	context.Context
	cancel context.CancelFunc
	asked  *atomic.Int64
}

func (c selfCancel) Err() error {
	if c.asked.Add(1) == 2 {
		c.cancel()
	}
	return c.Context.Err()
}

func TestCancelInsideJob1(t *testing.T) {
	ds := gen.Synthetic(gen.AntiCorrelated, 2000, 4, 5)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sc := selfCancel{Context: ctx, cancel: cancel, asked: &atomic.Int64{}}
	sky, rep, err := Skyline(sc, ds, Config{Workers: 1})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if sky != nil || rep != nil {
		t.Fatalf("cancelled run returned %d rows and report %v", len(sky), rep)
	}
	if sc.asked.Load() < 2 {
		t.Fatalf("context consulted %d times; the cancel never fired inside job 1", sc.asked.Load())
	}
}
