package zorder

import (
	"math/rand"
	"testing"
)

// benchGrids returns n uniformly random grid vectors of enc's shape and
// their addresses: every coordinate bit is a coin toss, which is what
// the bit loops' branches see on real data.
func benchGrids(enc *Encoder, n int) ([]uint32, ZCol) {
	rng := rand.New(rand.NewSource(17))
	grid := make([]uint32, n*enc.Dims())
	for i := range grid {
		grid[i] = rng.Uint32() & enc.MaxGrid()
	}
	zc := ZCol{Words: enc.Words(), Data: make([]uint64, n*enc.Words())}
	for i := 0; i < n; i++ {
		enc.EncodeGridInto(zc.At(i), grid[i*enc.Dims():(i+1)*enc.Dims()])
	}
	return grid, zc
}

func reportRows(b *testing.B, rows int) {
	b.ReportMetric(float64(rows)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
}

// The three benchmarks below are the anti-d8 shape (d=8, 16 bits, two
// words) through the interleave, the de-interleave and the region of
// two neighbouring addresses.

func BenchmarkEncodeGridD8B16(b *testing.B) {
	enc := mustEnc(b, 8, 16)
	const n = 4096
	grid, _ := benchGrids(enc, n)
	z := make(ZAddr, enc.Words())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for r := 0; r < n; r++ {
			enc.EncodeGridInto(z, grid[r*8:(r+1)*8])
		}
	}
	reportRows(b, n)
}

func BenchmarkDecodeGridD8B16(b *testing.B) {
	enc := mustEnc(b, 8, 16)
	const n = 4096
	_, zc := benchGrids(enc, n)
	g := make([]uint32, enc.Dims())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for r := 0; r < n; r++ {
			enc.DecodeGridInto(g, zc.At(r))
		}
	}
	reportRows(b, n)
}

func BenchmarkRegionD8B16(b *testing.B) {
	enc := mustEnc(b, 8, 16)
	const n = 4096
	_, zc := benchGrids(enc, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for r := 0; r+1 < n; r++ {
			enc.RegionOf(zc.At(r), zc.At(r+1))
		}
	}
	reportRows(b, n-1)
}

// Encoder construction builds the tables; serving paths make one per
// query.
func BenchmarkNewEncoderD8B16(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		mustEnc(b, 8, 16)
	}
}
