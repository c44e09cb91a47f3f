package zbtree

import (
	"math/rand"
	"testing"

	"zskyline/internal/point"
	"zskyline/internal/zorder"
)

// kernelBenchInput builds the standard kernel workload: n anti-
// correlated points in d dims plus their bulk-encoded Z-address
// column — the shape the pipeline hands the reduce and merge kernels.
func kernelBenchInput(tb testing.TB, n, d int) (*zorder.Encoder, point.Block, zorder.ZCol) {
	rng := rand.New(rand.NewSource(97))
	blk := genBlock(rng, "anti", n, d)
	enc := unitEnc(tb, d, 16)
	return enc, blk, enc.EncodeBlock(zorder.ZCol{}, blk)
}

// The columnar ZS path must allocate at least 5x less than the legacy
// pointer-per-entry path on identical data — the kernel refactor's
// headline number. The column is precomputed on the block side (the
// pipeline's encode-once contract); the legacy side encodes inside,
// as every pre-refactor query did.
func TestKernelAllocReduction(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc measurement is slow")
	}
	const n, d = 20000, 8
	enc, blk, zc := kernelBenchInput(t, n, d)
	pts := blk.Points()

	perSlice := testing.AllocsPerRun(3, func() {
		_ = BuildFromPoints(enc, 0, pts, nil).Skyline()
	})
	perBlock := testing.AllocsPerRun(3, func() {
		_, _ = ZSearchGroup(enc, 0, blk, zc, nil)
	})
	if perBlock <= 0 {
		t.Fatalf("implausible block allocs %v", perBlock)
	}
	ratio := perSlice / perBlock
	t.Logf("ZS allocs at %dx%dd: slice %.0f, block %.0f, ratio %.1fx", n, d, perSlice, perBlock, ratio)
	if ratio < 5 {
		t.Errorf("block ZS path saves only %.1fx allocations, want >= 5x", ratio)
	}
}

func BenchmarkLocalSkylineSlice(b *testing.B) {
	enc, blk, _ := kernelBenchInput(b, 20000, 8)
	pts := blk.Points()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = BuildFromPoints(enc, 0, pts, nil).Skyline()
	}
}

func BenchmarkLocalSkylineBlock(b *testing.B) {
	enc, blk, zc := kernelBenchInput(b, 20000, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = ZSearchGroup(enc, 0, blk, zc, nil)
	}
}

// BenchmarkZMergeBlock Z-merges two candidate halves, rebuilding the
// trees every iteration because the merge consumes them — exactly what
// a two-group phase-3 task pays per query.
func BenchmarkZMergeBlock(b *testing.B) {
	enc, blk, zc := kernelBenchInput(b, 20000, 8)
	st := NewStoreWithZCol(enc, blk, zc)
	half := st.Len() / 2
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := make([]int32, half)
		hi := make([]int32, st.Len()-half)
		for r := range lo {
			lo[r] = int32(r)
		}
		for r := range hi {
			hi[r] = int32(half + r)
		}
		skyA := BuildRows(st, 0, BuildRows(st, 0, lo, nil).SkylineRows(), nil)
		skyB := BuildRows(st, 0, BuildRows(st, 0, hi, nil).SkylineRows(), nil)
		_ = MergeBlock(skyA, skyB)
	}
}

// The three benchmarks below isolate the steps of the kernel speed pass
// on the anti-d8 shape (16k anti-correlated rows, d=8, 16 bits): the
// store's grid set-up, the tree's region set-up, and the point probe.

func BenchmarkNewStore16kD8(b *testing.B) {
	enc, blk, zc := kernelBenchInput(b, 16384, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = NewStoreWithZCol(enc, blk, zc)
	}
	b.ReportMetric(float64(blk.Len())*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
}

func BenchmarkBuildRows16kD8(b *testing.B) {
	enc, blk, zc := kernelBenchInput(b, 16384, 8)
	st := NewStoreWithZCol(enc, blk, zc)
	// Sorted once here, so an iteration is the bulk load and its one
	// region per node, not the sort.
	sorted := BuildStore(st, 0, nil).Rows()
	rows := make([]int32, len(sorted))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(rows, sorted)
		_ = BuildRows(st, 0, rows, nil)
	}
	b.ReportMetric(float64(len(rows))*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
}

// Every row of the input probes the tree of its own skyline (about 4k
// rows): the call Z-search, Z-merge, the SZB filter and the cross-shard
// sweep all spend their time in.
func BenchmarkDominatesPointAntiD8(b *testing.B) {
	enc, blk, zc := kernelBenchInput(b, 16384, 8)
	st := NewStoreWithZCol(enc, blk, zc)
	sky := BuildRows(st, 0, BuildStore(st, 0, nil).SkylineRows(), nil)
	hits := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for r := 0; r < st.Len(); r++ {
			if sky.DominatesPoint(st.Grid(int32(r)), st.Row(int32(r))) {
				hits++
			}
		}
	}
	b.ReportMetric(float64(st.Len())*float64(b.N)/b.Elapsed().Seconds(), "probes/s")
	if want := (st.Len() - sky.Len()) * b.N; hits != want {
		b.Fatalf("%d probes dominated, want %d", hits, want)
	}
}
