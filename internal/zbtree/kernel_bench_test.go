package zbtree

import (
	"fmt"
	"math/rand"
	"slices"
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
		out = blk.Select(ZSearchRowsUnder(prov, enc, 0, blk, zc, nil))
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
	benchBuildRows(b, st, BuildStore(st, 0, nil).Rows())
}

// BenchmarkBuildRowsRandom7kD8 builds over a phase-2 group: 7,000 rows
// in generation order, which is random in Z-order (BuildStore's input).
func BenchmarkBuildRowsRandom7kD8(b *testing.B) {
	enc, blk, zc := kernelBenchInput(b, 7000, 8)
	st := NewStoreWithZCol(enc, blk, zc)
	benchBuildRows(b, st, allRows(st.Len()))
}

// BenchmarkBuildRowsRuns16kD8 builds over sorted runs laid end to end:
// three, as Z-merge's rebuild concatenates the skyline, the survivors
// and the stash, and eight and 32, as the one-tree probe of that many
// candidate groups does. The last shape, rows in Z-order but for a
// shuffled last 1,000, no caller hands BuildRows. It is the one shape
// SortStableFunc's merges absorb and the radix sort does not: the two
// tie at this size, and at 31,000 rows the radix sort is the slower.
func BenchmarkBuildRowsRuns16kD8(b *testing.B) {
	enc, blk, zc := kernelBenchInput(b, 16384, 8)
	st := NewStoreWithZCol(enc, blk, zc)
	for _, runs := range []int{3, 8, 32} {
		b.Run(fmt.Sprintf("runs=%d", runs), func(b *testing.B) {
			benchBuildRows(b, st, sortedRuns(st, runs))
		})
	}
	b.Run("shuffled-tail=1000", func(b *testing.B) {
		rows := sortedRuns(st, 1)
		tail := rows[len(rows)-1000:]
		rand.New(rand.NewSource(1)).Shuffle(len(tail), func(i, j int) { tail[i], tail[j] = tail[j], tail[i] })
		benchBuildRows(b, st, rows)
	})
}

// sortedRuns splits st's rows into runs contiguous ranges and returns
// each range in Z-order, one after another.
func sortedRuns(st *Store, runs int) []int32 {
	var rows []int32
	for k := 0; k < runs; k++ {
		lo, hi := k*st.Len()/runs, (k+1)*st.Len()/runs
		run := make([]int32, 0, hi-lo)
		for r := lo; r < hi; r++ {
			run = append(run, int32(r))
		}
		slices.SortStableFunc(run, func(a, b int32) int { return st.zc.Compare(int(a), int(b)) })
		rows = append(rows, run...)
	}
	return rows
}

// benchBuildRows times BuildRows over a fresh copy of in each iteration.
func benchBuildRows(b *testing.B, st *Store, in []int32) {
	rows := make([]int32, len(in))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(rows, in)
		_ = BuildRows(st, 0, rows, nil)
	}
	b.ReportMetric(float64(len(rows))*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
}

// Every row of the input probes the tree of its own skyline (3,002
// rows): the call Z-search, Z-merge, the SZB filter and the cross-shard
// sweep all spend their time in.
func BenchmarkDominatesPointAntiD8(b *testing.B) {
	enc, blk, zc := kernelBenchInput(b, 16384, 8)
	st := NewStoreWithZCol(enc, blk, zc)
	sky := BuildRows(st, 0, BuildStore(st, 0, nil).SkylineRows(), nil)
	hits := 0
	var c metrics.Count
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for r := 0; r < st.Len(); r++ {
			if sky.DominatesPoint(&c, st.Grid(int32(r)), st.Row(int32(r))) {
				hits++
			}
		}
	}
	b.ReportMetric(float64(st.Len())*float64(b.N)/b.Elapsed().Seconds(), "probes/s")
	b.ReportMetric(float64(c.DominanceTests)/float64(b.N), "dom_tests/op")
	b.ReportMetric(float64(c.RegionTests)/float64(b.N), "region_tests/op")
	if want := (st.Len() - sky.Len()) * b.N; hits != want {
		b.Fatalf("%d probes dominated, want %d", hits, want)
	}
}

// benchmarkSZBProbe times the SZB map filter of Algorithm 3 on its own:
// the skyline of a 2 % sample of a generated input (d = 8, 16 bits),
// indexed the way plan.Learn indexes it — a tree over its 16
// representatives, plan's repBudget — and every input row probing it
// — grid, then DominatesPoint — from two goroutines, as two map tasks
// do: each counts into its own metrics.Count and adds it to the shared
// tally once, when it ends. It times the grid and the tree walk on every
// row; a map task runs them only for the rows past its float exit (the
// representatives' float max corner, plan.BenchmarkRoute*), so on
// correlated data this is the cost of the few rows that exit misses,
// paid here by all of them.
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
				var c metrics.Count
				for r := w; r < blk.Len(); r += workers {
					p := blk.Row(r)
					g = enc.GridInto(g, p)
					if szb.DominatesPoint(&c, g, p) {
						k++
					}
				}
				tally.Add(c)
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
