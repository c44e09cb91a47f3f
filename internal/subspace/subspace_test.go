package subspace

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"testing"

	"zskyline/internal/gen"
	"zskyline/internal/metrics"
	"zskyline/internal/point"
)

// bruteSubspace is the oracle: indices of rows not dominated in dims.
func bruteSubspace(ds *point.Dataset, dims []int) []int {
	dominates := func(a, b int) bool {
		strict := false
		for _, d := range dims {
			if ds.Points[a][d] > ds.Points[b][d] {
				return false
			}
			if ds.Points[a][d] < ds.Points[b][d] {
				strict = true
			}
		}
		return strict
	}
	var out []int
	for i := 0; i < ds.Len(); i++ {
		dominated := false
		for j := 0; j < ds.Len(); j++ {
			if i != j && dominates(j, i) {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, i)
		}
	}
	return out
}

func sameInts(t *testing.T, got, want []int, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %d rows, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: [%d] = %d, want %d", label, i, got[i], want[i])
		}
	}
}

func TestValidation(t *testing.T) {
	ds := gen.Synthetic(gen.Independent, 50, 3, 1)
	if _, err := Skyline(ds, nil, nil); err == nil {
		t.Error("empty dims accepted")
	}
	if _, err := Skyline(ds, []int{0, 0}, nil); err == nil {
		t.Error("duplicate dims accepted")
	}
	if _, err := Skyline(ds, []int{5}, nil); err == nil {
		t.Error("out-of-range dim accepted")
	}
	if got, err := Skyline(nil, []int{0}, nil); err != nil || got != nil {
		t.Errorf("nil dataset: %v %v", got, err)
	}
}

func TestSkylineMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 30; trial++ {
		d := 2 + rng.Intn(4)
		ds := gen.Synthetic(gen.Distribution(rng.Intn(3)), 100+rng.Intn(200), d, rng.Int63())
		// Random subspace.
		var dims []int
		for k := 0; k < d; k++ {
			if rng.Intn(2) == 0 {
				dims = append(dims, k)
			}
		}
		if len(dims) == 0 {
			dims = []int{0}
		}
		got, err := Skyline(ds, dims, nil)
		if err != nil {
			t.Fatal(err)
		}
		sameInts(t, got, bruteSubspace(ds, dims), "subspace")
	}
}

func TestProjectionDuplicatesAllKept(t *testing.T) {
	// Rows 0 and 1 coincide in dim 0; both must be kept.
	ds := point.MustDataset(2, []point.Point{{1, 5}, {1, 9}, {2, 0}})
	got, err := Skyline(ds, []int{0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	sameInts(t, got, []int{0, 1}, "projection dups")
}

// TestFloatTies prepends a column on which row 0 wins to inputs where
// a plain float-sum sort puts the dominated row 0 first (equal sums, or
// a NaN sum): projected onto the other columns, only row 1 survives.
func TestFloatTies(t *testing.T) {
	inf := math.Inf(1)
	for _, pts := range [][]point.Point{
		{{0, 1e16, 1}, {9, 1e16, 0}},
		{{0, 0.1, 0.2, 0.30000000000000004}, {9, 0.1, 0.2, 0.3}},
		{{0, -inf, inf}, {9, -inf, 5}},
	} {
		d := len(pts[0])
		ds := point.MustDataset(d, pts)
		var rest []int
		for k := 1; k < d; k++ {
			rest = append(rest, k)
		}
		got, err := Skyline(ds, rest, nil)
		if err != nil {
			t.Fatal(err)
		}
		sameInts(t, got, []int{1}, fmt.Sprint(pts))
		cube, err := SkyCube(ds, 2, nil)
		if err != nil {
			t.Fatal(err)
		}
		for mask, ids := range cube.Skylines {
			sameInts(t, ids, bruteSubspace(ds, maskDims(mask)), fmt.Sprintf("%v mask %b", pts, mask))
		}
	}
}

func TestSkyCube(t *testing.T) {
	ds := gen.Synthetic(gen.AntiCorrelated, 150, 4, 7)
	cube, err := SkyCube(ds, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(cube.Skylines) != 15 {
		t.Fatalf("cube has %d subspaces, want 15", len(cube.Skylines))
	}
	for mask, ids := range cube.Skylines {
		sameInts(t, ids, bruteSubspace(ds, maskDims(mask)), "cube mask")
		if bits.OnesCount32(mask) == 0 {
			t.Fatal("empty mask in cube")
		}
	}
	// Lookup API.
	ids, ok := cube.Of([]int{1, 3})
	if !ok || len(ids) == 0 {
		t.Errorf("Of lookup failed: %v %v", ids, ok)
	}
	if _, ok := cube.Of([]int{9}); ok {
		t.Error("out-of-range lookup succeeded")
	}
}

func TestSkyCubeGuards(t *testing.T) {
	big := gen.NUSWideLike(10, 1)
	if _, err := SkyCube(big, 2, nil); err == nil {
		t.Error("225-dim skycube accepted")
	}
	empty, err := SkyCube(nil, 2, nil)
	if err != nil || len(empty.Skylines) != 0 {
		t.Errorf("nil dataset cube: %v %v", empty, err)
	}
}

func TestTally(t *testing.T) {
	tal := &metrics.Tally{}
	ds := gen.Synthetic(gen.Independent, 200, 3, 9)
	if _, err := SkyCube(ds, 4, tal); err != nil {
		t.Fatal(err)
	}
	if tal.Snapshot().DominanceTests == 0 {
		t.Error("no tests recorded")
	}
}
