package zbtree

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"zskyline/internal/dominance"
	"zskyline/internal/gen"
	"zskyline/internal/metrics"
	"zskyline/internal/point"
	"zskyline/internal/sample"
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

func BenchmarkLocalSkylineBlock(b *testing.B) {
	enc, blk, zc := kernelBenchInput(b, 20000, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = ZSearchGroup(enc, 0, blk, zc, nil)
	}
}

// BenchmarkLocalSkylineBlockFlex and BenchmarkLocalSkylineBlockRobust
// run BenchmarkLocalSkylineBlock's walk on a store that carries the
// relation: flex keeps the positive cuts only, robust the negative cuts
// and lane rejects only, and both test leaves through the provider.
func BenchmarkLocalSkylineBlockFlex(b *testing.B) {
	benchLocalSkylineUnder(b, "flex:1,1,1,1,1,1,1,1;3,1,1,1,1,1,1,1")
}

func BenchmarkLocalSkylineBlockRobust(b *testing.B) {
	benchLocalSkylineUnder(b, "robust:0.01")
}

func benchLocalSkylineUnder(b *testing.B, relation string) {
	desc, err := dominance.ParseDescriptor(relation)
	if err != nil {
		b.Fatal(err)
	}
	prov, err := desc.Provider()
	if err != nil {
		b.Fatal(err)
	}
	enc, blk, zc := kernelBenchInput(b, 20000, 8)
	var out point.Block
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, _ = ZSearchGroupUnder(prov, enc, 0, blk, zc, nil)
	}
	b.ReportMetric(float64(out.Len()), "skyline")
}

// BenchmarkZSearchD12 is BenchmarkLocalSkylineBlock past d = 8, where
// a node's RZ-region fixes less than a bit per dimension: the yardstick
// of the tree walk at high d.
func BenchmarkZSearchD12(b *testing.B) {
	enc, blk, zc := kernelBenchInput(b, 20000, 12)
	var tally metrics.Tally
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = ZSearchGroup(enc, 0, blk, zc, &tally)
	}
	b.ReportMetric(float64(tally.Snapshot().DominanceTests)/float64(b.N), "dom_tests/op")
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

// benchmarkSZBProbe times the SZB map filter of Algorithm 3 on its own:
// the skyline of a 2 % sample of a generated input (d = 8, 16 bits),
// indexed the way plan.Learn indexes it — a tree over its 16
// representatives, plan's repBudget — and every input row probing it
// — grid, then DominatesPoint — from two goroutines that share the
// tree's tally, as two map tasks do.
func benchmarkSZBProbe(b *testing.B, dist gen.Distribution, n int) {
	const d, workers = 8, 2
	ds := gen.Synthetic(dist, n, d, 42)
	smp, err := sample.Ratio(ds.Points, 0.02, 42)
	if err != nil {
		b.Fatal(err)
	}
	enc := unitEnc(b, d, 16)
	tally := &metrics.Tally{}
	sky, skyZ := ZSearchGroup(enc, 0, point.BlockOf(d, smp), zorder.ZCol{}, tally)
	st := NewStoreWithZCol(enc, sky, skyZ)
	szb := BuildRows(st, 0, st.Representatives(0, int32(st.Len()), 16), tally)
	blk := point.BlockOf(d, ds.Points)
	var dropped atomic.Int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				g, k := make([]uint32, d), int64(0)
				for r := w; r < blk.Len(); r += workers {
					p := blk.Row(r)
					g = enc.GridInto(g, p)
					if szb.DominatesPoint(g, p) {
						k++
					}
				}
				dropped.Add(k)
			}(w)
		}
		wg.Wait()
	}
	b.ReportMetric(b.Elapsed().Seconds()*1e9/float64(b.N*blk.Len()), "ns/probe")
	b.ReportMetric(float64(dropped.Load())/float64(b.N*blk.Len()), "filtered/probe")
}

func BenchmarkSZBProbeAnti16kD8(b *testing.B)  { benchmarkSZBProbe(b, gen.AntiCorrelated, 16384) }
func BenchmarkSZBProbeCorr120kD8(b *testing.B) { benchmarkSZBProbe(b, gen.Correlated, 120000) }
