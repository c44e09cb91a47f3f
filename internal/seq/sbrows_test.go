package seq

import (
	"math"
	"math/rand"
	"slices"
	"testing"

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
		if got := SBRows(b, nil); !slices.Equal(got, []int32{1}) {
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
		if got, want := sortedRows(SBRows(b, nil)), bruteRows(b); !slices.Equal(got, want) {
			t.Fatalf("iter %d d=%d: SBRows %v, brute force %v", iter, d, got, want)
		}
	}
}

// fuzzCoords forces duplicates, sum ties and infinite coordinates.
var fuzzCoords = []float64{math.Inf(-1), -1, 0, 0.1, 0.2, 0.3, 0.30000000000000004, 1e16, math.Inf(1)}

// FuzzSBRows decodes the input into a block of at most 64 rows and 1–6
// dims over fuzzCoords and requires SBRows to return exactly the rows
// brute force leaves undominated.
func FuzzSBRows(f *testing.F) {
	f.Add([]byte{1, 7, 1, 7, 0})
	f.Add([]byte{2, 3, 4, 6, 3, 4, 5})
	f.Add([]byte{1, 0, 8, 0, 1})
	f.Add([]byte{5, 1, 2, 3, 4, 5, 6, 7, 8, 0, 1, 2, 3, 4, 5, 6, 7, 8, 0, 1, 2, 3, 4, 5, 6, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		dims := 1 + int(data[0])%6
		data = data[1:]
		rows := min(len(data)/dims, 64)
		b := point.Block{Dims: dims, Data: make([]float64, rows*dims)}
		for i := range b.Data {
			b.Data[i] = fuzzCoords[int(data[i])%len(fuzzCoords)]
		}
		got := SBRows(b, nil)
		if want := bruteRows(b); !slices.Equal(sortedRows(got), want) {
			t.Fatalf("dims=%d rows=%v: SBRows %v, brute force %v", dims, b.Data, got, want)
		}
	})
}
