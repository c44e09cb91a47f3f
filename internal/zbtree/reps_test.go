package zbtree

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// bruteReps ranks rows [lo,hi) of st by dominance volume with a stable
// sort, largest first, and keeps the first k.
func bruteReps(st *Store, lo, hi int32, k int) []int32 {
	scale := 1 / float64(uint64(1)<<st.enc.Bits())
	vol := func(i int32) float64 {
		v := 1.0
		for _, g := range st.Grid(i) {
			v *= 1 - float64(g)*scale
		}
		return v
	}
	rows := make([]int32, 0, hi-lo)
	for i := lo; i < hi; i++ {
		rows = append(rows, i)
	}
	sort.SliceStable(rows, func(a, b int) bool { return vol(rows[a]) > vol(rows[b]) })
	return rows[:min(k, len(rows))]
}

// Representatives is a stable top-k by volume: it matches a brute-force
// stable sort on every range and budget — coarse grids make ties
// common — repeats itself, and keeps every row of the range when k is
// at least the range's length.
func TestRepresentativesMatchSort(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, kind := range []string{"anti", "correlated", "independent"} {
		for _, bits := range []int{2, 4, 16} {
			const n, d = 300, 4
			st := NewStore(unitEnc(t, d, bits), genBlock(rng, kind, n, d))
			for _, rg := range [][2]int32{{0, n}, {0, 0}, {17, 18}, {40, 233}} {
				for _, k := range []int{0, 1, 5, 16, 64, n} {
					label := fmt.Sprintf("%s bits=%d [%d,%d) k=%d", kind, bits, rg[0], rg[1], k)
					got := st.Representatives(rg[0], rg[1], k)
					if want := bruteReps(st, rg[0], rg[1], k); !slices.Equal(got, want) {
						t.Fatalf("%s: got %v, want %v", label, got, want)
					}
					if again := st.Representatives(rg[0], rg[1], k); !slices.Equal(got, again) {
						t.Fatalf("%s: second call gave %v, first %v", label, again, got)
					}
					if span := int(rg[1] - rg[0]); k >= span {
						sorted := slices.Clone(got)
						slices.Sort(sorted)
						if len(sorted) != span || (span > 0 && (sorted[0] != rg[0] || sorted[span-1] != rg[1]-1)) {
							t.Fatalf("%s: k ≥ %d kept %d rows %v", label, span, len(got), got)
						}
					}
				}
			}
		}
	}
}
