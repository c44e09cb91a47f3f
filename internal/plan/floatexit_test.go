package plan

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"zskyline/internal/gen"
	"zskyline/internal/metrics"
	"zskyline/internal/point"
	"zskyline/internal/seq"
	"zskyline/internal/zorder"
)

// floatExitSpecs are parallel.Skyline's spec at two workers and core's
// default ZDG spec.
func floatExitSpecs() map[string]*Spec {
	return map[string]*Spec{
		"parallel": {Strategy: ZDG, Local: ZS, Merge: MergeZM, M: 2, Delta: 4,
			MapTasks: 2, SampleRatio: 0.02, Seed: 1, Bits: 16},
		"zdg": {Strategy: ZDG, Local: ZS, Merge: MergeZM, M: 32, Delta: 4,
			MapTasks: 16, SampleRatio: 0.02, Bits: 16},
	}
}

// The map's float exit drops a row above the representatives' float max
// corner in every coordinate before it is quantized. On gen's anti 16k
// and corr 120k at d = 8 and independent data at d = 12, under both
// specs, row by row:
//
//   - the corner is the representatives' componentwise max;
//   - the router routes every row as the tree-only probe (grid, then
//     DominatesPoint) does, with the same counts for every row that does
//     not leave at the exit, and one region test for a row that does;
//   - every row that leaves is strictly dominated by every
//     representative;
//   - every row the tree's root box dominates in the grid leaves at the
//     exit.
func TestSZBFloatExit(t *testing.T) {
	for _, tc := range []struct {
		dist gen.Distribution
		n, d int
	}{{gen.AntiCorrelated, 16384, 8}, {gen.Correlated, 120000, 8}, {gen.Independent, 20000, 12}} {
		ds := gen.Synthetic(tc.dist, tc.n, tc.d, 42)
		for name, spec := range floatExitSpecs() {
			label := fmt.Sprintf("%v/d=%d/%s", tc.dist, tc.d, name)
			r := learnRule(t, spec, ds)
			exits := checkFloatExit(t, label, r, ds.Points)
			if tc.dist == gen.Correlated && exits == 0 {
				t.Errorf("%s: no row left at the float exit", label)
			}
			t.Logf("%s: %d of %d rows leave at the float exit", label, exits, ds.Len())
		}
	}
}

// checkFloatExit checks r's router against the same rule without a
// corner on every row of pts, as TestSZBFloatExit describes, and
// returns how many rows leave at the float exit.
func checkFloatExit(t *testing.T, label string, r *Rule, pts []point.Point) (exits int) {
	t.Helper()
	if r.szb == nil || r.szb.Len() == 0 {
		t.Fatalf("%s: rule has no SZB filter", label)
	}
	st, reps := r.szb.Store(), r.szb.Rows()
	top := slices.Clone(st.Row(reps[0]))
	gridTop := slices.Clone(st.Grid(reps[0]))
	for _, row := range reps[1:] {
		for k := range top {
			top[k] = max(top[k], st.Row(row)[k])
			gridTop[k] = max(gridTop[k], st.Grid(row)[k])
		}
	}
	if !slices.Equal(r.top, top) {
		t.Fatalf("%s: corner %v, want the representatives' max %v", label, r.top, top)
	}

	treeOnly := *r
	treeOnly.top = nil
	rt, ref := r.newRouter(), treeOnly.newRouter()
	exit := metrics.Count{RegionTests: 1}
	for _, p := range pts {
		before, refBefore := rt.tests, ref.tests
		gid, ok := rt.route(p)
		refGid, refOK := ref.route(p)
		if gid != refGid || ok != refOK {
			t.Fatalf("%s: %v routes to (%d, %v), the tree-only probe to (%d, %v)", label, p, gid, ok, refGid, refOK)
		}
		got, want := sub(rt.tests, before), sub(ref.tests, refBefore)
		if !above(p, r.top) {
			if got != want {
				t.Fatalf("%s: %v past the exit counts %+v, the tree-only probe %+v", label, p, got, want)
			}
			if zorder.GridStrictDominates(gridTop, r.enc.Grid(p)) {
				t.Fatalf("%s: %v is dominated by the root box in the grid but passed the float exit", label, p)
			}
			continue
		}
		exits++
		if ok || got != exit {
			t.Fatalf("%s: %v leaves at the exit as (%d, %v) with counts %+v, want a drop and %+v", label, p, gid, ok, got, exit)
		}
		for _, row := range reps {
			if q := st.Row(row); !strictlyBelow(q, p) {
				t.Fatalf("%s: %v leaves at the exit, but representative %v does not strictly dominate it", label, p, q)
			}
		}
	}
	return exits
}

func sub(a, b metrics.Count) metrics.Count {
	return metrics.Count{DominanceTests: a.DominanceTests - b.DominanceTests, RegionTests: a.RegionTests - b.RegionTests}
}

// strictlyBelow reports whether q < p in every coordinate.
func strictlyBelow(q, p point.Point) bool {
	for k := range q {
		if !(q[k] < p[k]) {
			return false
		}
	}
	return true
}

// A sample whose skyline is one row m makes m the corner. The copies of
// m in the input equal the corner, so they pass the exit, the tree keeps
// them (no row dominates its copy) and all of them stay in the answer;
// a corner test that let equality through would drop them all. Every
// other row lies above m and leaves at the exit.
func TestSZBFloatExitKeepsCopiesOfTheCorner(t *testing.T) {
	const d, copies = 4, 3
	rng := rand.New(rand.NewSource(5))
	m := point.Point{0.1, 0.1, 0.1, 0.1}
	pts := []point.Point{}
	for i := 0; i < copies; i++ {
		pts = append(pts, slices.Clone(m))
	}
	for i := 0; i < 400; i++ {
		p := make(point.Point, d)
		for k := range p {
			p[k] = 0.2 + 0.8*rng.Float64()
		}
		pts = append(pts, p)
	}
	ds, err := point.NewDataset(d, pts)
	if err != nil {
		t.Fatal(err)
	}
	mins, maxs, err := ds.Bounds()
	if err != nil {
		t.Fatal(err)
	}
	smp := []point.Point{pts[0], pts[copies], pts[copies+1], pts[copies+2]}
	want := seq.SBBlock(point.BlockOf(d, pts), nil).Points()
	if len(want) != copies {
		t.Fatalf("input skyline has %d rows, want the %d copies of %v", len(want), copies, m)
	}
	for name, spec := range floatExitSpecs() {
		r, err := Learn(spec, d, mins, maxs, smp, nil)
		if err != nil {
			t.Fatal(err)
		}
		if r.szb.Len() != 1 || !slices.Equal(r.top, m) {
			t.Fatalf("%s: filter holds %d rows with corner %v, want the one row %v", name, r.szb.Len(), r.top, m)
		}
		if exits := checkFloatExit(t, name, r, pts); exits != len(pts)-copies {
			t.Fatalf("%s: %d rows left at the float exit, want %d", name, exits, len(pts)-copies)
		}
		sky, filtered := runRule(t, spec, ds, r, &metrics.Tally{})
		sameSet(t, sky, want, name)
		if filtered != int64(len(pts)-copies) {
			t.Fatalf("%s: filtered %d rows, want %d", name, filtered, len(pts)-copies)
		}
	}
}

// A row that equals the corner in one coordinate and lies above it in
// every other is not strictly dominated by the representative that
// holds the corner's value there, so it does not leave at the exit: it
// goes through the grid and the tree, with the tree-only probe's counts.
func TestSZBFloatExitNeedsEveryCoordinateAbove(t *testing.T) {
	ds := gen.Synthetic(gen.Correlated, 20000, 8, 42)
	for name, spec := range floatExitSpecs() {
		r := learnRule(t, spec, ds)
		var rows []point.Point
		for k := range r.top {
			p := slices.Clone(r.top)
			for j := range p {
				if j != k {
					p[j] += 1e-3
				}
			}
			if above(p, r.top) {
				t.Fatalf("%s: %v ties the corner %v in coordinate %d but is above it", name, p, r.top, k)
			}
			rows = append(rows, p)
		}
		if exits := checkFloatExit(t, name, r, rows); exits != 0 {
			t.Fatalf("%s: %d rows that tie the corner left at the float exit", name, exits)
		}
	}
}
