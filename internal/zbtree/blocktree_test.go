package zbtree

import (
	"math/rand"
	"testing"
	"testing/quick"

	"zskyline/internal/metrics"
	"zskyline/internal/point"
	"zskyline/internal/seq"
	"zskyline/internal/zorder"
)

// genBlock produces n points of d dims under one of three correlation
// profiles — the standard skyline benchmark families.
func genBlock(rng *rand.Rand, kind string, n, d int) point.Block {
	bb := point.NewBlockBuilder(d, n)
	for i := 0; i < n; i++ {
		row := bb.Extend()
		switch kind {
		case "correlated":
			base := rng.Float64()
			for k := range row {
				row[k] = 0.8*base + 0.2*rng.Float64()
			}
		case "anti":
			sum := 0.5 + 0.5*rng.Float64()
			for k := range row {
				row[k] = sum * rng.Float64()
			}
		default: // independent
			for k := range row {
				row[k] = rng.Float64()
			}
		}
	}
	return bb.Build()
}

func sortedPoints(pts []point.Point) []point.Point {
	out := append([]point.Point(nil), pts...)
	point.SortLexicographic(out)
	return out
}

func samePointSet(t *testing.T, label string, got, want []point.Point) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d points, want %d", label, len(got), len(want))
	}
	g, w := sortedPoints(got), sortedPoints(want)
	for i := range g {
		if !g[i].Equal(w[i]) {
			t.Fatalf("%s: point %d = %v, want %v", label, i, g[i], w[i])
		}
	}
}

// The block-native ZS path must agree point for point with the slice
// entry point and the brute-force oracle across correlation profiles
// and dimensionalities.
func TestZSearchBlockMatchesLegacyAndBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, kind := range []string{"correlated", "independent", "anti"} {
		for _, d := range []int{2, 3, 5, 7, 10} {
			b := genBlock(rng, kind, 400, d)
			enc, err := zorder.NewUnitEncoder(d, 12)
			if err != nil {
				t.Fatal(err)
			}
			pts := b.Points()
			oracle := seq.BruteForce(pts)
			slice := ZSearch(enc, 8, pts, nil)
			block := ZSearchBlock(enc, 8, b, nil)
			samePointSet(t, kind+"/slice", slice, oracle)
			samePointSet(t, kind+"/block", block.Points(), oracle)

			// Encode-once path: a pre-built column must give the same
			// answer and a consistent survivor column.
			zc := enc.EncodeBlock(zorder.ZCol{}, b)
			gBlk, gZC := ZSearchGroup(enc, 8, b, zc, nil)
			samePointSet(t, kind+"/group", gBlk.Points(), oracle)
			if gZC.Len() != gBlk.Len() {
				t.Fatalf("%s: survivor zcol %d rows, block %d", kind, gZC.Len(), gBlk.Len())
			}
			for i := 0; i < gBlk.Len(); i++ {
				if !zorder.Equal(gZC.At(i), enc.Encode(gBlk.Row(i))) {
					t.Fatalf("%s: survivor %d carries wrong z-address", kind, i)
				}
			}
		}
	}
}

// MergeBlock over a shared store must agree with the brute-force
// skyline of the union.
func TestMergeBlockMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for _, kind := range []string{"correlated", "independent", "anti"} {
		for _, d := range []int{2, 4, 8} {
			enc, err := zorder.NewUnitEncoder(d, 10)
			if err != nil {
				t.Fatal(err)
			}
			a := genBlock(rng, kind, 300, d)
			b := genBlock(rng, kind, 250, d)
			skyA := seq.BruteForce(a.Points())
			skyB := seq.BruteForce(b.Points())
			want := seq.BruteForce(append(a.Points(), b.Points()...))

			// Shared store over the concatenation of both candidate sets.
			bb := point.NewBlockBuilder(d, len(skyA)+len(skyB))
			for _, p := range skyA {
				bb.Append(p)
			}
			for _, p := range skyB {
				bb.Append(p)
			}
			st := NewStore(enc, bb.Build())
			rowsA := make([]int32, len(skyA))
			for i := range rowsA {
				rowsA[i] = int32(i)
			}
			rowsB := make([]int32, len(skyB))
			for i := range rowsB {
				rowsB[i] = int32(len(skyA) + i)
			}
			ta := BuildRows(st, 8, rowsA, nil)
			tb := BuildRows(st, 8, rowsB, nil)
			merged := MergeBlock(ta, tb)
			got, _ := st.CompactRows(merged.Rows())
			samePointSet(t, kind+"/merge", got.Points(), want)
		}
	}
}

// A store's grid is quantized from its rows, and must equal both
// NewStore's arena and the de-interleave of its own column — the
// provenance rule of DESIGN.md §5 — also where quantization is not a
// plain scale: rows outside the encoder's box (clamped) and a
// degenerate dimension (always cell 0).
func TestStoreWithZColMatchesNewStore(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	unit, err := zorder.NewUnitEncoder(5, 11)
	if err != nil {
		t.Fatal(err)
	}
	// The anti block spans [0,1]^5: this box cuts through it and pins
	// dimension 3.
	cut, err := zorder.NewEncoder(5, 11, []float64{0.2, 0, 0.3, 0.5, 0}, []float64{0.6, 1, 0.7, 0.5, 0.4})
	if err != nil {
		t.Fatal(err)
	}
	b := genBlock(rng, "anti", 150, 5)
	for name, enc := range map[string]*zorder.Encoder{"unit": unit, "cut box": cut} {
		fresh := NewStore(enc, b)
		reused := NewStoreWithZCol(enc, b, enc.EncodeBlock(zorder.ZCol{}, b))
		for i := int32(0); i < int32(b.Len()); i++ {
			if !zorder.Equal(fresh.Z(i), reused.Z(i)) {
				t.Fatalf("%s row %d: z mismatch", name, i)
			}
			fg, rg, dg := fresh.Grid(i), reused.Grid(i), enc.DecodeGrid(reused.Z(i))
			for k := range fg {
				if fg[k] != rg[k] || dg[k] != rg[k] {
					t.Fatalf("%s row %d dim %d: grid %d, NewStore %d, decoded column %d", name, i, k, rg[k], fg[k], dg[k])
				}
			}
		}
	}
}

// Quick property: block ZS equals brute force for arbitrary seeds
// (mirrors TestQuickSkylinePermutationInvariant's generator).
func TestQuickBlockSkylineMatchesOracle(t *testing.T) {
	f := func(seed int64) bool {
		pts, enc := quickPoints(seed, 250, 6)
		want := seq.BruteForce(pts)
		got := ZSearchBlock(enc, 2+int(uint64(seed)%13), point.BlockOf(enc.Dims(), pts), nil)
		if got.Len() != len(want) {
			return false
		}
		g, w := sortedPoints(got.Points()), sortedPoints(want)
		for i := range g {
			if !g[i].Equal(w[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Quick property: folding MergeBlock over many candidate sets sharing
// one store equals the brute-force skyline of the union.
func TestQuickMergeBlockFoldMatchesOracle(t *testing.T) {
	f := func(seed int64) bool {
		pts, enc := quickPoints(seed, 300, 5)
		if len(pts) == 0 {
			return true
		}
		b := point.BlockOf(enc.Dims(), pts)
		st := NewStore(enc, b)
		// Partition rows into up to 4 contiguous runs, skyline each, fold.
		r := rand.New(rand.NewSource(seed ^ 0x9e37))
		parts := 1 + r.Intn(4)
		acc := NewBlockTree(st, 8, nil)
		for i := 0; i < parts; i++ {
			lo, hi := i*len(pts)/parts, (i+1)*len(pts)/parts
			rows := make([]int32, 0, hi-lo)
			for j := lo; j < hi; j++ {
				rows = append(rows, int32(j))
			}
			part := BuildRows(st, 8, rows, nil)
			skyRows := part.SkylineRows()
			acc = MergeBlock(acc, BuildRows(st, 8, skyRows, nil))
		}
		got, _ := st.CompactRows(acc.Rows())
		want := seq.BruteForce(pts)
		if got.Len() != len(want) {
			return false
		}
		g, w := sortedPoints(got.Points()), sortedPoints(want)
		for i := range g {
			if !g[i].Equal(w[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Appending in Z-order must keep the accumulator equivalent to a bulk
// build over the same rows.
func TestBlockTreeAppendMatchesBulk(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	b := genBlock(rng, "independent", 120, 4)
	enc, err := zorder.NewUnitEncoder(4, 9)
	if err != nil {
		t.Fatal(err)
	}
	st := NewStore(enc, b)
	bulk := BuildStore(st, 4, nil)
	inc := NewBlockTree(st, 4, nil)
	for _, row := range bulk.Rows() {
		inc.Append(row)
	}
	if inc.Len() != bulk.Len() {
		t.Fatalf("incremental %d rows, bulk %d", inc.Len(), bulk.Len())
	}
	bi, bu := inc.Rows(), bulk.Rows()
	for i := range bi {
		if st.zc.Compare(int(bi[i]), int(bu[i])) != 0 {
			t.Fatalf("row %d: incremental z-order diverges from bulk", i)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-order Append did not panic")
		}
	}()
	inc.Append(bulk.Rows()[0])
}

// BlockTree probes count their tests in locals and add them to the
// shared tally once per probe; what they count must not drift. Over one
// seeded input the Z-search and the Z-merge of two halves' skylines are
// pinned to the counts of the tight node boxes and the lane node test
// (a row the lanes reject still counts as a dominance test), and to
// the brute-force skyline. The RZ-region tree counted 336,692/53,924
// and 213,294/33,698 here.
func TestBlockTreeTallyMatchesTree(t *testing.T) {
	enc, blk, zc := kernelBenchInput(t, 3000, 8)
	pts := blk.Points()
	want := seq.BruteForce(pts)
	var search metrics.Tally
	sky, _ := ZSearchGroup(enc, 0, blk, zc, &search)
	if s := search.Snapshot(); s.DominanceTests != 180162 || s.RegionTests != 57187 {
		t.Fatalf("Z-search counted %+v, want 180162 dominance and 57187 region tests", s)
	}
	samePointSet(t, "Z-search", sky.Points(), want)

	var merge metrics.Tally
	half := len(pts) / 2
	st := NewStoreWithZCol(enc, blk, zc)
	lo, hi := make([]int32, half), make([]int32, st.Len()-half)
	for r := range lo {
		lo[r] = int32(r)
	}
	for r := range hi {
		hi[r] = int32(half + r)
	}
	merged := MergeBlock(BuildRows(st, 0, BuildRows(st, 0, lo, nil).SkylineRows(), &merge),
		BuildRows(st, 0, BuildRows(st, 0, hi, nil).SkylineRows(), &merge))
	if s := merge.Snapshot(); s.DominanceTests != 133258 || s.RegionTests != 33360 {
		t.Fatalf("Z-merge counted %+v, want 133258 dominance and 33360 region tests", s)
	}
	got, _ := st.CompactRows(merged.Rows())
	samePointSet(t, "Z-merge", got.Points(), want)
}
