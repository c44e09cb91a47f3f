package core

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"zskyline/internal/dominance"
	"zskyline/internal/gen"
	"zskyline/internal/obs"
	"zskyline/internal/point"
	"zskyline/internal/seq"
)

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

func smallCfg() Config {
	cfg := Defaults()
	cfg.M = 8
	cfg.Delta = 3
	cfg.SampleRatio = 0.05
	cfg.Workers = 4
	cfg.Bits = 10
	return cfg
}

func TestConfigValidation(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.M = 0 },
		func(c *Config) { c.Delta = 0 },
		func(c *Config) { c.SampleRatio = 0 },
		func(c *Config) { c.SampleRatio = 1.5 },
		func(c *Config) { c.Bits = 0 },
		func(c *Config) { c.Bits = 99 },
		func(c *Config) { c.Workers = 0 },
	}
	for i, mutate := range bad {
		cfg := Defaults()
		mutate(&cfg)
		if _, err := NewEngine(cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	if _, err := NewEngine(Defaults()); err != nil {
		t.Errorf("defaults rejected: %v", err)
	}
}

func TestEmptyDataset(t *testing.T) {
	e, err := NewEngine(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	sky, rep, err := e.Skyline(context.Background(), &point.Dataset{Dims: 3})
	if err != nil || len(sky) != 0 || rep == nil {
		t.Fatalf("empty dataset: sky=%v rep=%v err=%v", sky, rep, err)
	}
	sky, _, err = e.Skyline(context.Background(), nil)
	if err != nil || sky != nil {
		t.Fatalf("nil dataset: %v %v", sky, err)
	}
}

// TestRaggedDatasetIsAnError: a dataset that bypassed NewDataset with a
// row of the wrong width fails phase 1 with a *point.WidthError naming
// the row — short or long, first or not, sampled or not — never a panic.
func TestRaggedDatasetIsAnError(t *testing.T) {
	e, err := NewEngine(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		pts []point.Point
		row int
	}{{[]point.Point{{1, 2}, {3}}, 1}, {[]point.Point{{3}, {1, 2}}, 0}, {[]point.Point{{1, 2}, {1, 2, 3}}, 1}} {
		var we *point.WidthError
		_, _, err := e.Skyline(context.Background(), &point.Dataset{Dims: 2, Points: c.pts})
		if !errors.As(err, &we) || we.Row != c.row {
			t.Errorf("ragged dataset %v: err = %v, want a *point.WidthError at row %d", c.pts, err, c.row)
		}
	}
}

// The central correctness property: every strategy x local x merge
// combination computes the exact skyline on every distribution.
func TestAllStrategiesExact(t *testing.T) {
	distributions := []gen.Distribution{gen.Independent, gen.Correlated, gen.AntiCorrelated}
	strategies := []Strategy{Grid, Angle, Random, NaiveZ, ZHG, ZDG}
	for _, dist := range distributions {
		ds := gen.Synthetic(dist, 3000, 4, 42)
		want := seq.SB(ds.Points, nil)
		for _, st := range strategies {
			cfg := smallCfg()
			cfg.Strategy = st
			e, err := NewEngine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			got, rep, err := e.Skyline(context.Background(), ds)
			if err != nil {
				t.Fatalf("%v/%v: %v", dist, st, err)
			}
			sameSet(t, got, want, dist.String()+"/"+st.String())
			if rep.SkylineSize != len(want) {
				t.Errorf("%v/%v: report size %d, want %d", dist, st, rep.SkylineSize, len(want))
			}
		}
	}
}

func TestAllLocalAndMergeAlgosExact(t *testing.T) {
	ds := gen.Synthetic(gen.AntiCorrelated, 2500, 5, 17)
	want := seq.SB(ds.Points, nil)
	for _, local := range []LocalAlgo{SB, ZS} {
		for _, merge := range []MergeAlgo{MergeZM, MergeZS, MergeSB} {
			cfg := smallCfg()
			cfg.Local = local
			cfg.Merge = merge
			e, err := NewEngine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			got, _, err := e.Skyline(context.Background(), ds)
			if err != nil {
				t.Fatalf("%v/%v: %v", local, merge, err)
			}
			sameSet(t, got, want, local.String()+"/"+merge.String())
		}
	}
}

func TestHighDimensionalExact(t *testing.T) {
	// d=10 exercises multi-word Z-addresses in the full pipeline.
	ds := gen.Synthetic(gen.Independent, 1200, 10, 5)
	want := seq.SB(ds.Points, nil)
	cfg := smallCfg()
	cfg.Bits = 8
	e, _ := NewEngine(cfg)
	got, _, err := e.Skyline(context.Background(), ds)
	if err != nil {
		t.Fatal(err)
	}
	sameSet(t, got, want, "d=10")
}

func TestDuplicateHeavyDataExact(t *testing.T) {
	// Integer grid data: massive ties and duplicates.
	ds := gen.Synthetic(gen.Independent, 2000, 3, 7)
	for i, p := range ds.Points {
		for k := range p {
			ds.Points[i][k] = float64(int(p[k]*4)) / 4
		}
	}
	want := seq.BruteForce(ds.Points)
	for _, st := range []Strategy{NaiveZ, ZHG, ZDG} {
		cfg := smallCfg()
		cfg.Strategy = st
		e, _ := NewEngine(cfg)
		got, _, err := e.Skyline(context.Background(), ds)
		if err != nil {
			t.Fatal(err)
		}
		sameSet(t, got, want, "dups/"+st.String())
	}
}

func TestReportFields(t *testing.T) {
	ds := gen.Synthetic(gen.AntiCorrelated, 4000, 4, 9)
	cfg := smallCfg()
	cfg.Strategy = ZDG
	e, _ := NewEngine(cfg)
	_, rep, err := e.Skyline(context.Background(), ds)
	if err != nil {
		t.Fatal(err)
	}
	if rep.SampleSize == 0 || rep.SampleSkySize == 0 {
		t.Errorf("sample fields empty: %+v", rep)
	}
	if rep.Groups < 1 || rep.Partitions < rep.Groups {
		t.Errorf("groups=%d partitions=%d", rep.Groups, rep.Partitions)
	}
	if rep.Candidates == 0 || rep.Candidates < rep.SkylineSize {
		t.Errorf("candidates=%d skyline=%d", rep.Candidates, rep.SkylineSize)
	}
	if routed := sum(rep.PerGroupInput); routed == 0 || routed != ds.Len()-int(rep.Filtered) {
		t.Errorf("routed %d rows of %d with %d filtered", routed, ds.Len(), rep.Filtered)
	}
	if rep.Total <= 0 || rep.Phase2 <= 0 || rep.Phase3 <= 0 {
		t.Errorf("phase durations: %+v", rep)
	}
	if rep.Tally.DominanceTests == 0 {
		t.Error("no dominance tests tallied")
	}
	if b := rep.CandidateBalance(); b.N != rep.Groups {
		t.Errorf("candidate balance over %d groups, want %d", b.N, rep.Groups)
	}
	if b := rep.InputBalance(); b.N != rep.Groups {
		t.Errorf("input balance over %d groups, want %d", b.N, rep.Groups)
	}
}

func sum(xs []int) int {
	s := 0
	for _, x := range xs {
		s += x
	}
	return s
}

// The paper's two balance goals as counts: for every strategy, under
// Pareto and under a flexible relation, the per-group input covers
// exactly the rows the mappers kept and the per-group candidates are
// exactly the phase-2 output.
func TestPerGroupCountsAddUp(t *testing.T) {
	ds := gen.Synthetic(gen.AntiCorrelated, 3000, 4, 37)
	flex := dominance.Descriptor{Kind: dominance.KindFlex, Weights: [][]float64{{1, 1, 1, 1}, {3, 1, 1, 1}}}
	for _, desc := range []dominance.Descriptor{{}, flex} {
		for _, st := range []Strategy{Grid, Angle, Random, NaiveZ, ZHG, ZDG} {
			cfg := smallCfg()
			cfg.Strategy = st
			cfg.Dominance = desc
			e, err := NewEngine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			_, rep, err := e.Skyline(context.Background(), ds)
			if err != nil {
				t.Fatal(err)
			}
			label := desc.String() + "/" + st.String()
			if len(rep.PerGroupInput) != rep.Groups || len(rep.PerGroupCandidates) != rep.Groups {
				t.Errorf("%s: %d input and %d candidate entries for %d groups",
					label, len(rep.PerGroupInput), len(rep.PerGroupCandidates), rep.Groups)
			}
			if got, want := sum(rep.PerGroupInput), ds.Len()-int(rep.Filtered); got != want {
				t.Errorf("%s: per-group input sums to %d, want n - filtered = %d", label, got, want)
			}
			if got := sum(rep.PerGroupCandidates); got != rep.Candidates {
				t.Errorf("%s: per-group candidates sum to %d, want %d", label, got, rep.Candidates)
			}
		}
	}
}

// ZDG must route fewer rows to the reducers than Grid on correlated
// data (the SZB filter and dominated-partition pruning at work).
func TestZDGPrunesMoreThanGrid(t *testing.T) {
	ds := gen.Synthetic(gen.Correlated, 8000, 5, 21)
	run := func(st Strategy) *Report {
		cfg := smallCfg()
		cfg.Strategy = st
		e, _ := NewEngine(cfg)
		_, rep, err := e.Skyline(context.Background(), ds)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	zdg := run(ZDG)
	grid := run(Grid)
	if zdg.Filtered == 0 {
		t.Error("ZDG filtered nothing on correlated data")
	}
	if z, g := sum(zdg.PerGroupInput), sum(grid.PerGroupInput); z >= g {
		t.Errorf("ZDG routed %d rows, grid %d; want less", z, g)
	}
}

// Candidate counts (Figure 13's pruning-power claim): the grouped
// strategies produce fewer candidates than bare Naive-Z on every
// distribution, because only they run the SZB filter and grouping.
func TestGroupedStrategiesBeatNaiveOnCandidates(t *testing.T) {
	for _, dist := range []gen.Distribution{gen.Independent, gen.Correlated, gen.AntiCorrelated} {
		ds := gen.Synthetic(dist, 8000, 5, 23)
		counts := map[Strategy]int{}
		for _, st := range []Strategy{NaiveZ, ZHG, ZDG} {
			cfg := smallCfg()
			cfg.Strategy = st
			e, _ := NewEngine(cfg)
			_, rep, err := e.Skyline(context.Background(), ds)
			if err != nil {
				t.Fatal(err)
			}
			counts[st] = rep.Candidates
		}
		if counts[ZDG] > counts[NaiveZ] {
			t.Errorf("%v: ZDG candidates %d > Naive-Z %d", dist, counts[ZDG], counts[NaiveZ])
		}
		if counts[ZHG] > counts[NaiveZ] {
			t.Errorf("%v: ZHG candidates %d > Naive-Z %d", dist, counts[ZHG], counts[NaiveZ])
		}
	}
}

// Ablation: disabling the SZB filter must not change the result, only
// the candidate volume.
func TestSZBFilterAblation(t *testing.T) {
	ds := gen.Synthetic(gen.Independent, 4000, 4, 29)
	want := seq.SB(ds.Points, nil)
	cfg := smallCfg()
	cfg.Strategy = ZDG
	cfg.DisableSZBFilter = true
	e, _ := NewEngine(cfg)
	got, repOff, err := e.Skyline(context.Background(), ds)
	if err != nil {
		t.Fatal(err)
	}
	sameSet(t, got, want, "no filter")
	cfg.DisableSZBFilter = false
	e2, _ := NewEngine(cfg)
	_, repOn, err := e2.Skyline(context.Background(), ds)
	if err != nil {
		t.Fatal(err)
	}
	if repOn.Candidates > repOff.Candidates {
		t.Errorf("filter increased candidates: %d with vs %d without",
			repOn.Candidates, repOff.Candidates)
	}
	if repOn.Filtered == 0 {
		t.Error("filter dropped nothing")
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	ds := gen.Synthetic(gen.AntiCorrelated, 3000, 4, 31)
	cfg := smallCfg()
	e, _ := NewEngine(cfg)
	first, rep1, err := e.Skyline(context.Background(), ds)
	if err != nil {
		t.Fatal(err)
	}
	second, rep2, err := e.Skyline(context.Background(), ds)
	if err != nil {
		t.Fatal(err)
	}
	sameSet(t, second, first, "rerun")
	if rep1.Candidates != rep2.Candidates || rep1.Groups != rep2.Groups {
		t.Errorf("reports differ: %d/%d vs %d/%d candidates/groups",
			rep1.Candidates, rep1.Groups, rep2.Candidates, rep2.Groups)
	}
}

func TestRealisticSimulatedDatasets(t *testing.T) {
	for _, tc := range []struct {
		name string
		ds   *point.Dataset
	}{
		{"nba", gen.NBALike(350, 1)},
		{"hou", gen.HOULike(500, 1)},
	} {
		want := seq.BruteForce(tc.ds.Points)
		cfg := smallCfg()
		cfg.M = 4
		e, _ := NewEngine(cfg)
		got, _, err := e.Skyline(context.Background(), tc.ds)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		sameSet(t, got, want, tc.name)
	}
}

func TestStringers(t *testing.T) {
	if Grid.String() != "Grid" || ZDG.String() != "ZDG" || Strategy(42).String() == "" {
		t.Error("strategy names")
	}
	if SB.String() != "SB" || ZS.String() != "ZS" {
		t.Error("local algo names")
	}
	if MergeZM.String() != "ZM" || MergeZS.String() != "ZS" || MergeSB.String() != "SB" {
		t.Error("merge algo names")
	}
}

func TestEngineContextCancellation(t *testing.T) {
	ds := gen.Synthetic(gen.Independent, 50000, 5, 7)
	cfg := smallCfg()
	cfg.Workers = 1
	cfg.ChunkSize = 1000
	e, _ := NewEngine(cfg)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before start: must fail fast, not hang
	_, _, err := e.Skyline(ctx, ds)
	if err == nil {
		t.Fatal("cancelled context produced a result")
	}
}

// cancelInMerge is a context that cancels itself the first time it is
// asked for its error once phase 3's merge span has started.
type cancelInMerge struct {
	context.Context
	cancel context.CancelFunc
	tr     *obs.Trace
}

func (c *cancelInMerge) Err() error {
	for _, sp := range c.tr.Root().Children() {
		if sp.Name() == "merge/round-1" {
			c.cancel()
		}
	}
	return c.Context.Err()
}

func TestEngineCancelMidRun(t *testing.T) {
	ds := gen.Synthetic(gen.AntiCorrelated, 5000, 4, 7)
	e, err := NewEngine(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTrace("cancel")
	inner, cancel := context.WithCancel(obs.ContextWithTrace(context.Background(), tr))
	defer cancel()
	sky, rep, err := e.Skyline(&cancelInMerge{Context: inner, cancel: cancel, tr: tr}, ds)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if sky != nil || rep != nil {
		t.Fatalf("cancelled run returned %d rows and report %v", len(sky), rep)
	}
	if inner.Err() == nil {
		t.Fatal("the run finished without reaching phase 3")
	}
}

// quick property: random (strategy, algo, M, delta, bits, ratio)
// configurations all compute the exact skyline.
func TestQuickRandomConfigsExact(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		cfg := Defaults()
		cfg.Strategy = []Strategy{Grid, Angle, Random, NaiveZ, ZHG, ZDG}[r.Intn(6)]
		cfg.Local = []LocalAlgo{SB, ZS}[r.Intn(2)]
		cfg.Merge = []MergeAlgo{MergeZM, MergeZS, MergeSB}[r.Intn(3)]
		cfg.M = 1 + r.Intn(16)
		cfg.Delta = 1 + r.Intn(5)
		cfg.Bits = 2 + r.Intn(18)
		cfg.SampleRatio = 0.02 + r.Float64()*0.2
		cfg.Workers = 1 + r.Intn(6)
		cfg.Fanout = 2 + r.Intn(30)
		d := 1 + r.Intn(5)
		n := 50 + r.Intn(1200)
		ds := gen.Synthetic(gen.Distribution(r.Intn(3)), n, d, seed)
		eng, err := NewEngine(cfg)
		if err != nil {
			return false
		}
		got, _, err := eng.Skyline(context.Background(), ds)
		if err != nil {
			return false
		}
		want := seq.BruteForce(ds.Points)
		if len(got) != len(want) {
			t.Logf("seed %d cfg %+v: got %d want %d", seed, cfg, len(got), len(want))
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// benchEngine times Engine.Skyline at the defaults on two workers, as
// bench/'s aux op runs it on a 2-core box, with allocations reported.
func benchEngine(b *testing.B, ds *point.Dataset) {
	cfg := Defaults()
	cfg.Workers = 2
	cfg.Seed = 42
	eng, err := NewEngine(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := eng.Skyline(context.Background(), ds); err != nil {
			b.Fatal(err)
		}
	}
}

// The two batch sizes of bench/ (anti-d8 and corr-d8), so the aux op's
// engine can be iterated on without the 20 s driver.
func BenchmarkEngineAnti16kD8(b *testing.B) {
	benchEngine(b, gen.Synthetic(gen.AntiCorrelated, 16000, 8, 42))
}

func BenchmarkEngineCorr120kD8(b *testing.B) {
	benchEngine(b, gen.Synthetic(gen.Correlated, 120000, 8, 42))
}
