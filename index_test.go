package zskyline

import (
	"context"
	"sync"
	"testing"

	"zskyline/internal/point"
)

func TestIndexBasics(t *testing.T) {
	if _, err := BuildIndex(nil, 0); err == nil {
		t.Error("empty dataset indexed")
	}
	ds := Generate(Independent, 3000, 4, 21)
	ix, err := BuildIndex(ds, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ix.Len() != 3000 {
		t.Errorf("Len = %d", ix.Len())
	}
	want := SequentialSkyline(ds.Points)
	if got := ix.Skyline(); len(got) != len(want) {
		t.Errorf("skyline %d, want %d", len(got), len(want))
	}
}

func TestIndexProgressive(t *testing.T) {
	ds := Generate(AntiCorrelated, 2000, 3, 23)
	ix, _ := BuildIndex(ds, 0)
	var got []Point
	for p := range ix.SkylineProgressive(context.Background()) {
		got = append(got, p)
	}
	if len(got) != len(ix.Skyline()) {
		t.Errorf("progressive %d points, batch %d", len(got), len(ix.Skyline()))
	}
}

func TestIndexRangeAndConstrained(t *testing.T) {
	ds := Generate(Independent, 2000, 2, 25)
	ix, _ := BuildIndex(ds, 0)
	lo, hi := Point{0.25, 0.25}, Point{0.75, 0.75}
	inBox, err := ix.Range(lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, p := range ds.Points {
		if p[0] >= 0.25 && p[0] <= 0.75 && p[1] >= 0.25 && p[1] <= 0.75 {
			want++
		}
	}
	if len(inBox) != want {
		t.Errorf("range %d, want %d", len(inBox), want)
	}
	sky, err := ix.SkylineWithin(lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	if len(sky) == 0 || len(sky) > len(inBox) {
		t.Errorf("constrained skyline %d of %d", len(sky), len(inBox))
	}
	if _, err := ix.SkylineWithin(hi, lo); err == nil {
		t.Error("inverted box accepted")
	}
	if _, err := ix.Range(Point{0}, Point{1}); err == nil {
		t.Error("dim mismatch accepted")
	}
}

func TestIndexExplain(t *testing.T) {
	ds := Generate(Independent, 1000, 3, 27)
	ix, _ := BuildIndex(ds, 0)
	sky := ix.Skyline()
	// A skyline point has no dominators.
	doms, err := ix.Dominators(sky[0])
	if err != nil || len(doms) != 0 {
		t.Errorf("skyline point has dominators: %v %v", doms, err)
	}
	// The worst corner is dominated by everything that is strictly
	// better in all dims.
	doms, err = ix.Dominators(Point{1.1, 1.1, 1.1})
	if err != nil || len(doms) == 0 {
		t.Errorf("worst corner has no dominators: %v", err)
	}
	n, err := ix.DominatedCount(Point{-0.1, -0.1, -0.1})
	if err != nil || n != ix.Len() {
		t.Errorf("best corner dominates %d of %d", n, ix.Len())
	}
	if _, err := ix.Dominators(Point{1}); err == nil {
		t.Error("dim mismatch accepted")
	}
	if _, err := ix.DominatedCount(Point{1}); err == nil {
		t.Error("dim mismatch accepted")
	}
	if ix.Stats().RegionTests == 0 {
		t.Error("no stats recorded")
	}
}

// sortedCopy returns pts sorted lexicographically, without touching
// the caller's slice.
func sortedCopy(pts []Point) []Point {
	out := append([]Point(nil), pts...)
	point.SortLexicographic(out)
	return out
}

func samePoints(t *testing.T, label string, got, want []Point) {
	t.Helper()
	g, w := sortedCopy(got), sortedCopy(want)
	if len(g) != len(w) {
		t.Fatalf("%s: %d points %v, want %d %v", label, len(g), g, len(w), w)
	}
	for i := range g {
		if !g[i].Equal(w[i]) {
			t.Fatalf("%s: point %d = %v, want %v", label, i, g[i], w[i])
		}
	}
}

// The index owns its data: overwriting a point an answer returned, or
// a point of the indexed dataset, changes no later answer.
func TestIndexAnswersDoNotAliasData(t *testing.T) {
	ds, err := NewDataset(2, []Point{{0.1, 0.9}, {0.9, 0.1}, {0.5, 0.5}, {0.6, 0.6}})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := BuildIndex(ds, 0)
	if err != nil {
		t.Fatal(err)
	}
	wantSky := []Point{{0.1, 0.9}, {0.9, 0.1}, {0.5, 0.5}}
	all := []Point{{0.1, 0.9}, {0.9, 0.1}, {0.5, 0.5}, {0.6, 0.6}}
	lo, hi := Point{0, 0}, Point{1, 1}
	check := func(label string) {
		t.Helper()
		samePoints(t, label+": skyline", ix.Skyline(), wantSky)
		in, _ := ix.Range(lo, hi)
		samePoints(t, label+": range", in, all)
		doms, _ := ix.Dominators(Point{0.7, 0.7})
		samePoints(t, label+": dominators", doms, []Point{{0.5, 0.5}, {0.6, 0.6}})
		if n, _ := ix.DominatedCount(Point{0.05, 0.05}); n != 4 {
			t.Fatalf("%s: (0.05,0.05) dominates %d points, want 4", label, n)
		}
	}
	check("fresh")

	for _, p := range ix.Skyline() {
		p[0], p[1] = 0, 0
	}
	in, _ := ix.Range(lo, hi)
	for _, p := range in {
		p[0], p[1] = 0, 0
	}
	within, _ := ix.SkylineWithin(lo, hi)
	for _, p := range within {
		p[0], p[1] = 0, 0
	}
	for p := range ix.SkylineProgressive(context.Background()) {
		p[0], p[1] = 0, 0
	}
	check("answers overwritten")

	for _, p := range ds.Points {
		p[0], p[1] = 0, 0
	}
	check("dataset overwritten")
}

// An Index is safe for concurrent reads: goroutines running every query
// at once all get the answers a lone caller gets.
func TestIndexConcurrentReads(t *testing.T) {
	ds := Generate(AntiCorrelated, 3000, 3, 29)
	ix, err := BuildIndex(ds, 0)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := Point{0.2, 0.2, 0.2}, Point{0.8, 0.8, 0.8}
	probe := Point{0.6, 0.6, 0.6}
	wantSky := ix.Skyline()
	wantRange, _ := ix.Range(lo, hi)
	wantWithin, _ := ix.SkylineWithin(lo, hi)
	wantDoms, _ := ix.Dominators(probe)
	wantCount, _ := ix.DominatedCount(probe)

	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var prog []Point
			for p := range ix.SkylineProgressive(context.Background()) {
				prog = append(prog, p)
			}
			in, _ := ix.Range(lo, hi)
			within, _ := ix.SkylineWithin(lo, hi)
			doms, _ := ix.Dominators(probe)
			n, _ := ix.DominatedCount(probe)
			switch {
			case len(ix.Skyline()) != len(wantSky), len(prog) != len(wantSky):
				errs <- "skyline"
			case len(in) != len(wantRange), len(within) != len(wantWithin):
				errs <- "range"
			case len(doms) != len(wantDoms), n != wantCount:
				errs <- "dominance"
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Errorf("concurrent %s answer differs from the serial one", e)
	}
	samePoints(t, "skyline", ix.Skyline(), SequentialSkyline(ds.Points))
}
