package zbtree

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"zskyline/internal/dominance"
	"zskyline/internal/metrics"
	"zskyline/internal/point"
	"zskyline/internal/zorder"
)

// refDominatesPoint is the recursive form of the probe walk over whole
// lane words: node n's box, then its kids in order, every leaf row
// through the full lane test and the relation's exact one. It is the
// reference the stack walk must match in answer and in every count.
func (t *BlockTree) refDominatesPoint(c *metrics.Count, n int32, g []uint32, pl []uint64, p point.Point) bool {
	c.RegionTests++
	st := t.st
	if !st.noNeg && lanesSomeGreater(t.boxLanes(n), pl) {
		return false
	}
	if !st.noPos && zorder.GridStrictDominates(t.boxMax(n), g) {
		return true
	}
	nd := &t.nodes[n]
	if !nd.isLeaf() {
		for _, kid := range nd.kids {
			if t.refDominatesPoint(c, kid, g, pl, p) {
				return true
			}
		}
		return false
	}
	c.DominanceTests += int64(len(nd.rows))
	for _, e := range nd.rows {
		if !st.noNeg && lanesSomeGreater(st.lanesOf(e), pl) {
			continue
		}
		if st.prov != nil && st.prov.Dominates(st.Row(e), p) || st.prov == nil && point.Dominates(st.Row(e), p) {
			return true
		}
	}
	return false
}

// refDominates runs the reference walk for p from the root.
func (t *BlockTree) refDominates(c *metrics.Count, g []uint32, p point.Point) bool {
	if t.root < 0 {
		return false
	}
	pl := make([]uint64, laneWords(len(g)))
	packLanes(pl, g, laneShift(t.st.enc.Bits()))
	return t.refDominatesPoint(c, t.root, g, pl, p)
}

// walkRows draws n tie-heavy rows in [0,1]^d: random coordinates,
// values from a four-point set, and rows repeated outright.
func walkRows(rng *rand.Rand, n, d int) point.Block {
	b := point.Block{Dims: d, Data: make([]float64, n*d)}
	for i := 0; i < n; i++ {
		row := b.Row(i)
		if i > 0 && rng.Intn(8) == 0 {
			copy(row, b.Row(rng.Intn(i)))
			continue
		}
		sum := 0.5 + 0.5*rng.Float64()
		for k := range row {
			row[k] = sum * rng.Float64()
			if rng.Intn(4) == 0 {
				row[k] = float64(rng.Intn(4)) / 4
			}
		}
	}
	return b
}

// repeatStore is a store over blk's rows laid end to end times times,
// encoded once: big trees out of few distinct points.
func repeatStore(enc *zorder.Encoder, blk point.Block, times int) *Store {
	zc := enc.EncodeBlock(zorder.ZCol{}, blk)
	big := point.Block{Dims: blk.Dims}
	bigZ := zorder.ZCol{Words: zc.Words}
	for k := 0; k < times; k++ {
		big.Data = append(big.Data, blk.Data...)
		bigZ.Data = append(bigZ.Data, zc.Data...)
	}
	return NewStoreWithZCol(enc, big, bigZ)
}

// The stack walk visits the nodes the recursion did, in the same order:
// DominatesRow and DominatesPoint give the reference's answer and add
// the same dominance and region tests, at every lane width (prefix only,
// padded, with a tail), every coarsening shift, every fanout — 64 grows
// the walk's stack past its buffer — and under every relation. Each d
// takes two of the grid widths in turn, so every width meets every lane
// shape without the whole grid.
func TestWalkMatchesRecursive(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	dims := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 33, 40}
	widths := []int{1, 6, 15, 16, 17}
	for i, d := range dims {
		for _, bits := range []int{widths[i%len(widths)], widths[(i+2)%len(widths)]} {
			enc := unitEnc(t, d, bits)
			blk := walkRows(rng, 100, d)
			for _, fanout := range []int{2, 3, 16, 64} {
				times, probes := 1, 32
				if fanout == 64 {
					// 4,200 rows: three levels, 65 nodes on the stack at once.
					times, probes = 42, 8
				}
				st := repeatStore(enc, blk, times)
				for _, prov := range underProviders(t, d) {
					label := fmt.Sprintf("%s d=%d bits=%d fanout=%d", prov.Name(), d, bits, fanout)
					tr := BuildStore(st.Under(prov), fanout, nil)
					for probe := 0; probe < probes; probe++ {
						row := int32(rng.Intn(blk.Len()))
						var got, want metrics.Count
						ok, wantOK := tr.DominatesRow(&got, row), tr.refDominates(&want, st.Grid(row), st.Row(row))
						if ok != wantOK || got != want {
							t.Fatalf("%s: DominatesRow(%d) = %v %+v, recursion %v %+v", label, row, ok, got, wantOK, want)
						}
						q := slices.Clone(st.Row(row))
						k := rng.Intn(d)
						q[k] = math.Nextafter(q[k], math.Inf(-1))
						g := enc.Grid(q)
						got, want = metrics.Count{}, metrics.Count{}
						ok, wantOK = tr.DominatesPoint(&got, g, q), tr.refDominates(&want, g, q)
						if ok != wantOK || got != want {
							t.Fatalf("%s: DominatesPoint(%v) = %v %+v, recursion %v %+v", label, q, ok, got, wantOK, want)
						}
						if brute := bruteDominated(prov, blk, q); ok != brute {
							t.Fatalf("%s: DominatesPoint(%v) = %v, brute force %v", label, q, ok, brute)
						}
					}
				}
			}
		}
	}
}

// bruteDominated reports whether some row of blk dominates p under prov.
func bruteDominated(prov dominance.Provider, blk point.Block, p point.Point) bool {
	for i := 0; i < blk.Len(); i++ {
		if prov.Dominates(blk.Row(i), p) {
			return true
		}
	}
	return false
}

// stableByZ is the order BuildRows must leave: slices.SortStableFunc
// over the store's Z-addresses.
func stableByZ(st *Store, rows []int32) []int32 {
	out := slices.Clone(rows)
	slices.SortStableFunc(out, func(a, b int32) int { return st.zc.Compare(int(a), int(b)) })
	return out
}

// BuildRows orders its leaves exactly as the stable sort does, ties in
// input order, on the shapes its callers hand it: random rows (radix,
// one and several address words, and the small-input sort), tie-heavy
// rows (coarse grids, and stores of five distinct nearby rows, whose
// long ties reach the full-address sort), rows already sorted or in
// reverse, and sorted runs laid end to end.
func TestBuildRowsOrderMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(56))
	shuffled := func(n int) []int32 {
		rows := allRows(n)
		rng.Shuffle(n, func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
		return rows
	}
	for _, c := range []struct{ d, bits int }{{8, 16}, {3, 12}, {12, 6}, {5, 1}, {8, 2}, {17, 17}} {
		enc := unitEnc(t, c.d, c.bits)
		for _, n := range []int{1, 40, 64, 65, 900} {
			for _, st := range []*Store{NewStore(enc, walkRows(rng, n, c.d)), NewStore(enc, dupRows(rng, n, c.d))} {
				checkBuildOrder(t, fmt.Sprintf("d=%d bits=%d n=%d", c.d, c.bits, n), st, shuffled)
			}
		}
	}
}

// dupRows draws n rows in [0,1]^d from five distinct ones a few grid
// cells apart: long runs of rows tied on the whole Z-address, and on
// multi-word addresses, runs tied on the leading word alone.
func dupRows(rng *rand.Rand, n, d int) point.Block {
	few := walkRows(rng, 5, d)
	for i := 1; i < few.Len(); i++ {
		copy(few.Row(i), few.Row(0))
		k := rng.Intn(d)
		few.Row(i)[k] = math.Abs(few.Row(i)[k] - float64(i)*1e-4)
	}
	b := point.Block{Dims: d, Data: make([]float64, n*d)}
	for i := 0; i < n; i++ {
		copy(b.Row(i), few.Row(rng.Intn(few.Len())))
	}
	return b
}

// checkBuildOrder holds BuildRows' leaf order over st's rows to the
// stable sort's, the rows handed over in each shape.
func checkBuildOrder(t *testing.T, label string, st *Store, shuffled func(int) []int32) {
	t.Helper()
	n := st.Len()
	sorted := stableByZ(st, allRows(n))
	shapes := map[string][]int32{
		"random":   shuffled(n),
		"identity": allRows(n),
		"sorted":   slices.Clone(sorted),
		"reversed": slices.Clone(sorted),
	}
	slices.Reverse(shapes["reversed"])
	for _, k := range []int{2, 3, 16, 40} {
		var runs []int32
		perm := shuffled(n)
		for r := 0; r < k; r++ {
			runs = append(runs, stableByZ(st, perm[r*n/k:(r+1)*n/k])...)
		}
		shapes[fmt.Sprintf("%d runs", k)] = runs
	}
	for name, rows := range shapes {
		want := stableByZ(st, rows)
		if got := BuildRows(st, 0, rows, nil).Rows(); !slices.Equal(got, want) {
			t.Fatalf("%s %s: BuildRows order\n%v\nwant stable sort\n%v", label, name, got, want)
		}
	}
}

// MergeBlock's tree holds its three runs — the skyline's rows, the
// survivors and the stash — in the stable sort of their concatenation:
// on a Z-address tie the earlier run's row comes first.
func TestMergeBlockOrderMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(57))
	for _, c := range []struct{ d, bits int }{{8, 16}, {4, 2}, {6, 1}, {12, 6}} {
		enc := unitEnc(t, c.d, c.bits)
		for trial := 0; trial < 20; trial++ {
			n := 50 + rng.Intn(600)
			st := NewStore(enc, walkRows(rng, n, c.d))
			cut := int32(rng.Intn(n))
			halves := func() (*BlockTree, *BlockTree) {
				var lo, hi []int32
				for _, e := range allRows(n) {
					if e < cut {
						lo = append(lo, e)
					} else {
						hi = append(hi, e)
					}
				}
				return BuildRows(st, 4, BuildRows(st, 4, lo, nil).SkylineRows(), nil),
					BuildRows(st, 4, BuildRows(st, 4, hi, nil).SkylineRows(), nil)
			}
			sky, src := halves()
			if sky.Empty() || src.Empty() {
				continue
			}
			want := stableByZ(st, zmergeRows(sky, src))
			sky, src = halves()
			if got := MergeBlock(sky, src).Rows(); !slices.Equal(got, want) {
				t.Fatalf("d=%d bits=%d n=%d: MergeBlock order\n%v\nwant\n%v", c.d, c.bits, n, got, want)
			}
		}
	}
}
