package parallel

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"zskyline/internal/dominance"
	"zskyline/internal/gen"
	"zskyline/internal/metrics"
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

// propertyInput builds n d-wide rows of the named shape from seed.
func propertyInput(shape string, n, d int, seed int64) *point.Dataset {
	switch shape {
	case "independent":
		return gen.Synthetic(gen.Independent, n, d, seed)
	case "correlated":
		return gen.Synthetic(gen.Correlated, n, d, seed)
	case "anti-correlated":
		return gen.Synthetic(gen.AntiCorrelated, n, d, seed)
	case "all-equal":
		pts := make([]point.Point, n)
		for i := range pts {
			pts[i] = make(point.Point, d)
			for k := range pts[i] {
				pts[i][k] = 0.25
			}
		}
		return point.MustDataset(d, pts)
	default: // duplicate-heavy: three values per coordinate
		ds := gen.Synthetic(gen.Independent, n, d, seed)
		for _, p := range ds.Points {
			for k := range p {
				p[k] = float64(int(p[k]*3)) / 3
			}
		}
		return ds
	}
}

// TestExactProperty: every input shape, size, worker count and width
// returns exactly the brute-force skyline. Sizes cover the empty input,
// fewer rows than workers, and a few thousand rows (a few hundred at
// d=225, where the quadratic oracle is the cost of the test).
func TestExactProperty(t *testing.T) {
	shapes := []string{"independent", "correlated", "anti-correlated", "all-equal", "duplicate-heavy"}
	workers := []int{1, 2, 3, 8, 64}
	for _, d := range []int{2, 8, 225} {
		big := 4000
		if d == 225 {
			big = 400
		}
		sizes := map[int]bool{1: true, 2: true, big: true}
		for _, w := range workers {
			sizes[w-1] = true
		}
		for si, shape := range shapes {
			d, si, shape := d, si, shape
			t.Run(fmt.Sprintf("%s/d=%d", shape, d), func(t *testing.T) {
				t.Parallel() // the oracle is quadratic; let the shapes overlap
				for n := range sizes {
					ds := propertyInput(shape, n, d, int64(1000*d+10*si+n%7))
					want := seq.BruteForce(ds.Points)
					for _, w := range workers {
						got, err := Skyline(context.Background(), ds, Options{Workers: w})
						if err != nil {
							t.Fatalf("n=%d workers=%d: %v", n, w, err)
						}
						sameSet(t, got, want, fmt.Sprintf("n=%d workers=%d", n, w))
					}
				}
			})
		}
	}
}

func TestEdgeCases(t *testing.T) {
	if got, err := Skyline(context.Background(), nil, Options{}); err != nil || got != nil {
		t.Errorf("nil dataset: %v %v", got, err)
	}
	// A ragged dataset that bypassed NewDataset is phase 1's typed error,
	// not a crash and not a silently misaligned block: whichever row is
	// off, whether the sample draws it or not, short or long.
	for _, c := range []struct {
		pts []point.Point
		row int
	}{{[]point.Point{{1, 2}, {3}}, 1}, {[]point.Point{{3}, {1, 2}}, 0}, {[]point.Point{{1, 2}, {1, 2, 3}}, 1}} {
		var we *point.WidthError
		_, err := Skyline(context.Background(), &point.Dataset{Dims: 2, Points: c.pts}, Options{Workers: 1})
		if !errors.As(err, &we) || we.Row != c.row {
			t.Errorf("ragged dataset %v: err = %v, want a *point.WidthError at row %d", c.pts, err, c.row)
		}
	}
}

// pairKind is a relation built to expose a verify pass that looks at
// too little: Pareto dominance plus one extra pair, pairW over pairV.
// It contains Pareto (so the map filter stays on) and is not
// transitive: pairW is itself Pareto-dominated, hence dropped by the
// filter and absent from every candidate set, yet it alone eliminates
// pairV.
const pairKind = "pareto+pair"

var pairW, pairV = point.Point{0.6, 0.6}, point.Point{0.9, 0.1}

type pairProvider struct{}

func (pairProvider) Name() string { return pairKind }
func (pairProvider) Dominates(p, q point.Point) bool {
	return point.Dominates(p, q) || (p.Equal(pairW) && q.Equal(pairV))
}
func (pr pairProvider) DominatesRows(a point.Block, i int, b point.Block, j int) bool {
	return pr.Dominates(a.Row(i), b.Row(j))
}
func (pairProvider) Caps() dominance.Caps { return dominance.Caps{ParetoImplies: true} }
func (pairProvider) Descriptor() dominance.Descriptor {
	return dominance.Descriptor{Kind: pairKind}
}

// TestVerifyReadsTheFullInput: the row that eliminates pairV never
// reaches the reduce phase, so only a verify pass over the whole input
// — filtered rows included — returns the right answer.
func TestVerifyReadsTheFullInput(t *testing.T) {
	if err := dominance.Register(pairKind, func(dominance.Descriptor) (dominance.Provider, error) {
		return pairProvider{}, nil
	}); err != nil {
		t.Fatal(err)
	}
	// Nine rows in ten are the point that Pareto-dominates pairW, so the
	// sample skyline holds it whatever rows the sample draws.
	pts := []point.Point{pairW.Clone(), pairV.Clone(), {0.1, 0.9}}
	for len(pts) < 600 {
		pts = append(pts, point.Point{0.5, 0.5})
	}
	ds := point.MustDataset(2, pts)
	want := dominance.BruteForce(pairProvider{}, ds.Points)
	for _, w := range []int{1, 2, 5} {
		tal := &metrics.Tally{}
		got, err := Skyline(context.Background(), ds, Options{Workers: w, Tally: tal,
			Dominance: dominance.Descriptor{Kind: pairKind}})
		if err != nil {
			t.Fatal(err)
		}
		if tal.Snapshot().PointsPruned == 0 {
			t.Fatalf("workers=%d: the filter dropped nothing, so the test proves nothing", w)
		}
		sameSet(t, got, want, fmt.Sprintf("workers=%d", w))
	}
}

// TestProviderMatrix: each shipped relation equals its own brute force
// on data the filter bites on, and the filter runs exactly when Pareto
// dominance implies the relation's.
func TestProviderMatrix(t *testing.T) {
	const d = 4
	ones := []float64{1, 1, 1, 1}
	for _, desc := range []dominance.Descriptor{
		{},
		{Kind: dominance.KindFlex, Weights: [][]float64{ones, {3, 1, 1, 1}}},
		{Kind: dominance.KindKDom, K: d - 1},
		{Kind: dominance.KindRobust, Rho: 0.05},
	} {
		prov, err := desc.Provider()
		if err != nil {
			t.Fatal(err)
		}
		for _, dist := range []gen.Distribution{gen.Correlated, gen.AntiCorrelated} {
			ds := gen.Synthetic(dist, 2500, d, 77)
			want := dominance.BruteForce(prov, ds.Points)
			for _, w := range []int{1, 4} {
				label := fmt.Sprintf("%s/%v/workers=%d", prov.Name(), dist, w)
				tal := &metrics.Tally{}
				got, err := Skyline(context.Background(), ds, Options{Workers: w, Dominance: desc, Tally: tal})
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				sameSet(t, got, want, label)
				pruned := tal.Snapshot().PointsPruned
				if on := prov.Caps().ParetoImplies; on != (pruned > 0) {
					t.Errorf("%s: ParetoImplies=%v but the filter dropped %d rows", label, on, pruned)
				}
			}
		}
	}
}

// TestFilterEngaged: on correlated rows the sample skyline kills nearly
// everything in the map tasks, so almost nothing is Z-encoded or packed
// — the call allocates a fraction of what one packed copy of the input
// would take.
func TestFilterEngaged(t *testing.T) {
	const n, d = 50000, 8
	ds := gen.Synthetic(gen.Correlated, n, d, 5)
	tal := &metrics.Tally{}
	tr := obs.NewTrace("filter")
	ctx := obs.ContextWithTrace(context.Background(), tr)

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	got, err := Skyline(ctx, ds, Options{Workers: 4, Tally: tal})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	tr.Finish()
	sameSet(t, got, seq.SB(ds.Points, nil), "correlated 50k")

	pruned := tal.Snapshot().PointsPruned
	if pruned < n*9/10 {
		t.Errorf("PointsPruned = %d, want >= %d", pruned, n*9/10)
	}
	// Every row the map phase lets through is encoded exactly once, and
	// no other row is: encoded rows = points - filtered.
	attrs := spanAttrs(tr)
	if f := attrs["map"]["filtered"]; f != fmt.Sprint(pruned) {
		t.Errorf("map span filtered = %v, tally says %d", f, pruned)
	}
	if encoded := n - pruned; encoded >= n/10 {
		t.Errorf("%d rows encoded, want < %d", encoded, n/10)
	}
	if got, packed := after.TotalAlloc-before.TotalAlloc, uint64(n*d*8); got > packed/2 {
		t.Errorf("allocated %d bytes; one packed copy of the input is %d", got, packed)
	}
	// The learn span tells the truth about the sample and the shards.
	if l := attrs["learn"]; l["sample"] != fmt.Sprint(n/50) || l["groups"] != "4" || l["sample_skyline"] == "0" || l["szb_rows"] == "0" {
		t.Errorf("learn span = %v", l)
	}
}

// spanAttrs indexes the attributes of a trace's top-level spans by span
// name and key.
func spanAttrs(tr *obs.Trace) map[string]map[string]string {
	attrs := map[string]map[string]string{}
	for _, sp := range tr.Root().Children() {
		attrs[sp.Name()] = map[string]string{}
		for _, a := range sp.Attrs() {
			attrs[sp.Name()][a.Key] = a.Value
		}
	}
	return attrs
}

// TestSpansCountRealShards: fewer rows than workers means fewer map
// tasks, and the spans say so. The groups are what ZDG learned, not the
// workers asked for: three rows sample one, and one sample row makes one
// group, which every row reaches.
func TestSpansCountRealShards(t *testing.T) {
	ds := gen.Synthetic(gen.Independent, 3, 2, 1)
	tr := obs.NewTrace("small")
	if _, err := Skyline(obs.ContextWithTrace(context.Background(), tr), ds, Options{Workers: 8}); err != nil {
		t.Fatal(err)
	}
	tr.Finish()
	attrs := spanAttrs(tr)
	if g, m := attrs["learn"]["groups"], attrs["map"]["tasks"]; g != "1" || m != "3" {
		t.Errorf("learn groups = %q, map tasks = %q, want 1 and 3", g, m)
	}
	if rg := attrs["local-skyline"]["groups"]; rg != "1" {
		t.Errorf("local-skyline groups = %q, want 1", rg)
	}
}

// tripCtx is a context that cancels itself on the trip-th call of Err,
// which lets a test cancel from inside whatever loop is polling it.
type tripCtx struct {
	context.Context
	trip  int64
	calls atomic.Int64
	once  sync.Once
	done  chan struct{}
}

func (c *tripCtx) Err() error {
	if c.calls.Add(1) < c.trip {
		return nil
	}
	c.once.Do(func() { close(c.done) })
	return context.Canceled
}

func (c *tripCtx) Done() <-chan struct{} { return c.done }

func TestContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ds := gen.Synthetic(gen.AntiCorrelated, 4000, 4, 13)
	if _, err := Skyline(ctx, ds, Options{Workers: 4}); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled context: err = %v", err)
	}
}

// TestCancelDuringFilter: one worker, one shard of 300k rows. The map
// task looks at its context every 1024 rows, so finishing the shard
// takes some 290 looks; the context trips on the 40th, and the call
// must come back cancelled within a handful more.
func TestCancelDuringFilter(t *testing.T) {
	ds := gen.Synthetic(gen.Correlated, 300000, 4, 3)
	ctx := &tripCtx{Context: context.Background(), trip: 40, done: make(chan struct{})}
	if _, err := Skyline(ctx, ds, Options{Workers: 1}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if calls := ctx.calls.Load(); calls > ctx.trip+10 {
		t.Errorf("context polled %d times after tripping on call %d: the shard kept going", calls-ctx.trip, ctx.trip)
	}
}

// TestDeterministicOrder: the sample seed is fixed, so the same input
// and worker count give the same rows in the same order, run after run.
func TestDeterministicOrder(t *testing.T) {
	ds := gen.Synthetic(gen.AntiCorrelated, 6000, 5, 21)
	for _, w := range []int{1, 2, 5} {
		first, err := Skyline(context.Background(), ds, Options{Workers: w})
		if err != nil {
			t.Fatal(err)
		}
		for run := 0; run < 3; run++ {
			again, err := Skyline(context.Background(), ds, Options{Workers: w})
			if err != nil {
				t.Fatal(err)
			}
			if len(again) != len(first) {
				t.Fatalf("workers=%d: %d rows, then %d", w, len(first), len(again))
			}
			for i := range first {
				if !first[i].Equal(again[i]) {
					t.Fatalf("workers=%d run %d: row %d = %v, first run had %v", w, run, i, again[i], first[i])
				}
			}
		}
	}
}

func TestTallyPlumbed(t *testing.T) {
	tal := &metrics.Tally{}
	ds := gen.Synthetic(gen.AntiCorrelated, 2000, 3, 7)
	if _, err := Skyline(context.Background(), ds, Options{Workers: 4, Tally: tal}); err != nil {
		t.Fatal(err)
	}
	if tal.Snapshot().DominanceTests == 0 {
		t.Error("no work recorded")
	}
}

// Workers fixes the plan (M, map tasks, pool width), and every task
// adds its counts to the tally once, when it ends: the counts of one
// plan must not depend on how many of its tasks run at once. Each plan
// runs on one OS thread and on all of them, and the two-worker plan's
// counts are pinned (data seed 42), so a task that forgets to add its
// counter fails too.
func TestTallyIndependentOfConcurrency(t *testing.T) {
	for _, c := range []struct {
		name string
		ds   *point.Dataset
		two  metrics.Snapshot // at Workers 2
	}{
		{"anti16k", gen.Synthetic(gen.AntiCorrelated, 16000, 8, 42),
			metrics.Snapshot{DominanceTests: 2530574, RegionTests: 952432, PointsPruned: 2633}},
		{"corr120k", gen.Synthetic(gen.Correlated, 120000, 8, 42),
			metrics.Snapshot{DominanceTests: 8671, RegionTests: 120445, PointsPruned: 119996}},
	} {
		for _, w := range []int{1, 2, 3} {
			var snaps [2]metrics.Snapshot
			for k, procs := range []int{1, runtime.NumCPU()} {
				prev := runtime.GOMAXPROCS(procs)
				tal := &metrics.Tally{}
				_, err := Skyline(context.Background(), c.ds, Options{Workers: w, Tally: tal})
				runtime.GOMAXPROCS(prev)
				if err != nil {
					t.Fatal(err)
				}
				snaps[k] = tal.Snapshot()
			}
			if snaps[0] != snaps[1] {
				t.Errorf("%s workers=%d: tally %+v on one thread, %+v on %d", c.name, w, snaps[0], snaps[1], runtime.NumCPU())
			}
			if w == 2 && snaps[0] != c.two {
				t.Errorf("%s workers=2: tally %+v, want %+v", c.name, snaps[0], c.two)
			}
		}
	}
}

// benchSkyline times Skyline at GOMAXPROCS workers and without a tally,
// as bench/'s untraced cycles call it, and reports how much of the
// input the map filter dropped and how many rows were Z-encoded (every
// survivor, exactly once). The counts repeat exactly, so they come from
// one untimed call.
func benchSkyline(b *testing.B, ds *point.Dataset) {
	tal := &metrics.Tally{}
	if _, err := Skyline(context.Background(), ds, Options{Tally: tal}); err != nil {
		b.Fatal(err)
	}
	filtered := float64(tal.Snapshot().PointsPruned)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Skyline(context.Background(), ds, Options{}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(filtered, "filtered/op")
	b.ReportMetric(float64(ds.Len())-filtered, "encoded_rows/op")
}

// The two batch sizes of bench/ (corr-d8 and anti-d8), so the kernel
// can be iterated on without the 20 s driver.
func BenchmarkSkylineCorr120kD8(b *testing.B) {
	benchSkyline(b, gen.Synthetic(gen.Correlated, 120000, 8, 42))
}

func BenchmarkSkylineAnti16kD8(b *testing.B) {
	benchSkyline(b, gen.Synthetic(gen.AntiCorrelated, 16000, 8, 42))
}

func BenchmarkParallel100k5d(b *testing.B) {
	ds := gen.Synthetic(gen.Independent, 100000, 5, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Skyline(context.Background(), ds, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSequential100k5d(b *testing.B) {
	ds := gen.Synthetic(gen.Independent, 100000, 5, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Skyline(context.Background(), ds, Options{Workers: 1}); err != nil {
			b.Fatal(err)
		}
	}
}
