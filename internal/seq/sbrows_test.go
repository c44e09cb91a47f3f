package seq

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"zskyline/internal/dominance"
	"zskyline/internal/gen"
	"zskyline/internal/metrics"
	"zskyline/internal/point"
)

// floatTieCases are inputs on which a plain float-sum sort puts the
// dominated row first: equal sums in the first two, a NaN sum in the
// third. In each, only the second row is on the skyline.
var floatTieCases = []struct {
	name string
	pts  []point.Point
}{
	{"rounded-sum", []point.Point{{1e16, 1}, {1e16, 0}}},
	{"decimal-sum", []point.Point{{0.1, 0.2, 0.30000000000000004}, {0.1, 0.2, 0.3}}},
	{"nan-sum", []point.Point{{math.Inf(-1), math.Inf(1)}, {math.Inf(-1), 5}}},
}

// bruteRows is the index oracle: every row no other row dominates,
// ascending.
func bruteRows(b point.Block) []int32 {
	var out []int32
	for i := 0; i < b.Len(); i++ {
		dominated := false
		for j := 0; j < b.Len() && !dominated; j++ {
			dominated = point.DominatesRows(b, j, b, i)
		}
		if !dominated {
			out = append(out, int32(i))
		}
	}
	return out
}

func sortedRows(rows []int32) []int32 {
	out := slices.Clone(rows)
	slices.Sort(out)
	return out
}

func TestSBFloatTies(t *testing.T) {
	for _, c := range floatTieCases {
		b := point.BlockOf(len(c.pts[0]), c.pts)
		if got := SBRows(nil, b, nil); !slices.Equal(got, []int32{1}) {
			t.Errorf("%s: SBRows = %v, want [1]", c.name, got)
		}
		want := BruteForce(c.pts)
		if len(want) != 1 || !want[0].Equal(c.pts[1]) {
			t.Fatalf("%s: BruteForce = %v", c.name, want)
		}
		assertSameSet(t, c.name+"/SB", SB(c.pts, nil), want)
		assertSameSet(t, c.name+"/SBBlock", SBBlock(b, nil).Points(), want)
	}
}

// SBRows returns every undominated row once, duplicates included, on
// tie-heavy random blocks.
func TestSBRowsMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for iter := 0; iter < 200; iter++ {
		d := 1 + rng.Intn(6)
		b := genTestBlock(rng, "independent", rng.Intn(120), d)
		if got, want := sortedRows(SBRows(nil, b, nil)), bruteRows(b); !slices.Equal(got, want) {
			t.Fatalf("iter %d d=%d: SBRows %v, brute force %v", iter, d, got, want)
		}
	}
}

// fuzzCoords forces duplicates, sum ties and infinite coordinates.
var fuzzCoords = []float64{math.Inf(-1), -1, 0, 0.1, 0.2, 0.3, 0.30000000000000004, 1e16, math.Inf(1), 1, 5}

// fuzzRelation is FuzzSBRows' relation for selector byte sel over dims
// dimensions: Pareto (nil), a two-vector flex, k-dominance or robust.
func fuzzRelation(t *testing.T, sel byte, dims int) dominance.Provider {
	var desc dominance.Descriptor
	switch sel / 6 % 4 {
	case 0:
		return nil
	case 1:
		ones, heavy := make([]float64, dims), make([]float64, dims)
		for k := range ones {
			ones[k], heavy[k] = 1, 1
		}
		heavy[0] = 3
		desc = dominance.Descriptor{Kind: dominance.KindFlex, Weights: [][]float64{ones, heavy}}
	case 2:
		desc = dominance.Descriptor{Kind: dominance.KindKDom, K: 1 + int(sel/24)%dims}
	default:
		desc = dominance.Descriptor{Kind: dominance.KindRobust, Rho: 0.1}
	}
	prov, err := desc.Provider()
	if err != nil {
		t.Fatal(err)
	}
	return prov
}

// FuzzSBRows decodes the input into a relation, a block of at most 64
// rows and 1–6 dims over fuzzCoords, and requires SBRows to return
// exactly the rows dominance.BruteForce leaves undominated. The first
// byte picks the width and the relation (see fuzzRelation); it is
// Pareto below 6.
func FuzzSBRows(f *testing.F) {
	f.Add([]byte{1, 7, 1, 7, 0})
	f.Add([]byte{2, 3, 4, 6, 3, 4, 5})
	f.Add([]byte{1, 0, 8, 0, 1})
	f.Add([]byte{5, 1, 2, 3, 4, 5, 6, 7, 8, 0, 1, 2, 3, 4, 5, 6, 7, 8, 0, 1, 2, 3, 4, 5, 6, 7})
	// Flex: a tie under the all-ones vector, and the first row strictly
	// better under the heavy one, so it dominates the second.
	f.Add([]byte{7, 3, 4, 4, 3})
	// The float-tie rows under every relation.
	for rel := byte(0); rel < 4; rel++ {
		for _, c := range floatTieCases {
			seed := []byte{byte(len(c.pts[0])-1) + 6*rel}
			for _, p := range c.pts {
				for _, v := range p {
					seed = append(seed, byte(slices.Index(fuzzCoords, v)))
				}
			}
			f.Add(seed)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		dims := 1 + int(data[0])%6
		prov := fuzzRelation(t, data[0], dims)
		data = data[1:]
		rows := min(len(data)/dims, 64)
		b := point.Block{Dims: dims, Data: make([]float64, rows*dims)}
		for i := range b.Data {
			b.Data[i] = fuzzCoords[int(data[i])%len(fuzzCoords)]
		}
		got := sortedRows(SBRows(prov, b, nil))
		oracle := prov
		if oracle == nil {
			oracle = dominance.Pareto{}
		}
		want := dominance.BruteForce(oracle, b.Points())
		if !slices.EqualFunc(b.Select(got).Points(), want, point.Point.Equal) {
			t.Fatalf("%s dims=%d rows=%v: SBRows %v, brute force %v", oracle.Descriptor(), dims, b.Data, got, want)
		}
	})
}

// TestSBRowsPinnedPerRelation pins SBRows' answer rows and dominance
// tests under each built-in relation on one generated input. The rows
// and the counts are those of the sort-filter kernel the relations had
// before SBRows took them, bar k-dominance's count (see kdomSelfTests).
func TestSBRowsPinnedPerRelation(t *testing.T) {
	ds := gen.Synthetic(gen.Independent, 300, 5, 5)
	b := point.BlockOf(ds.Dims, ds.Points)
	for _, c := range []struct {
		relation string
		tests    int64
		rows     []int32
	}{
		{"pareto", 5643, []int32{2, 8, 9, 11, 12, 16, 21, 26, 28, 29, 33, 34, 38, 39, 41, 42, 43, 45, 46, 59, 66, 68, 70, 71, 75, 76, 77, 78, 83, 84, 91, 93, 95, 96, 98, 100, 102, 103, 104, 105, 107, 108, 109, 114, 118, 121, 122, 127, 131, 133, 136, 138, 139, 143, 145, 149, 150, 151, 152, 153, 156, 163, 165, 168, 172, 178, 181, 182, 185, 187, 190, 191, 193, 194, 196, 206, 218, 223, 226, 229, 237, 238, 239, 241, 242, 243, 250, 251, 256, 264, 265, 266, 267, 271, 280, 282, 292, 295, 296}},
		{"flex:1,1,1,1,1;3,1,1,1,1", 338, []int32{133, 239, 282}},
		{"kdom:4", 3845 + kdomSelfTests, []int32{21, 38, 133, 226, 239, 256, 265, 296}},
		{"robust:0.01", 7164, []int32{2, 3, 8, 9, 11, 12, 16, 21, 26, 28, 29, 32, 33, 34, 38, 39, 41, 42, 43, 45, 46, 58, 59, 66, 68, 70, 71, 75, 76, 77, 78, 83, 84, 91, 93, 95, 96, 98, 100, 102, 103, 104, 105, 107, 108, 109, 110, 114, 118, 119, 121, 122, 127, 131, 133, 136, 138, 139, 143, 145, 149, 150, 151, 152, 153, 156, 159, 161, 163, 165, 168, 172, 178, 181, 182, 185, 187, 188, 190, 191, 193, 194, 196, 203, 206, 213, 218, 223, 226, 229, 231, 232, 237, 238, 239, 241, 242, 243, 250, 251, 256, 264, 265, 266, 267, 271, 277, 280, 281, 282, 286, 292, 295, 296}},
	} {
		desc, err := dominance.ParseDescriptor(c.relation)
		if err != nil {
			t.Fatal(err)
		}
		prov, err := desc.Provider()
		if err != nil {
			t.Fatal(err)
		}
		var tally metrics.Tally
		if got := sortedRows(SBRows(prov, b, &tally)); !slices.Equal(got, c.rows) {
			t.Errorf("%s: rows %v, want %v", c.relation, got, c.rows)
		}
		if got := tally.Snapshot().DominanceTests; got != c.tests {
			t.Errorf("%s: %d dominance tests, want %d", c.relation, got, c.tests)
		}
	}
}

// kdomSelfTests is what k-dominance's count gained when its closing
// pass became FilterRows: the old pass skipped each candidate's test
// against itself, FilterRows runs it (and it always fails) for every
// candidate that reaches its own row. Here those are the 8 survivors.
const kdomSelfTests = 8
