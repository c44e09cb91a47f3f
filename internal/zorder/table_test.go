package zorder

import (
	"math/rand"
	"testing"
)

// kernelShapes is the matrix the table and region kernels are checked
// over: one-word, word-straddling and many-word addresses; shapes with
// and without tables; dims that do and do not divide a word.
var kernelShapes = struct{ dims, bits []int }{
	dims: []int{1, 2, 3, 8, 12, 225},
	bits: []int{1, 6, 16, MaxBits},
}

func eachKernelShape(t *testing.T, f func(t *testing.T, enc *Encoder, rng *rand.Rand)) {
	for _, d := range kernelShapes.dims {
		for _, b := range kernelShapes.bits {
			f(t, mustEnc(t, d, b), rand.New(rand.NewSource(int64(d*100+b))))
		}
	}
}

func randGrid(rng *rand.Rand, enc *Encoder) []uint32 {
	g := make([]uint32, enc.Dims())
	for i := range g {
		g[i] = rng.Uint32() & enc.MaxGrid()
	}
	return g
}

// refRegion is the definition of an RZ-region, spelled out on the
// address with the bit loops: keep the common prefix, pad with zeros
// for minpt and with ones for maxpt, de-interleave each.
func refRegion(enc *Encoder, alpha, beta ZAddr) Region {
	total := enc.TotalBits()
	cpl := CommonPrefixLen(alpha, beta, total)
	lo, hi := make(ZAddr, enc.Words()), make(ZAddr, enc.Words())
	for i := 0; i < total; i++ {
		word, bit := i/64, uint64(1)<<uint(63-i%64)
		if i < cpl {
			lo[word] |= alpha[word] & bit
			hi[word] |= alpha[word] & bit
		} else {
			hi[word] |= bit
		}
	}
	return Region{
		MinG: enc.decodeGridBits(make([]uint32, enc.Dims()), lo),
		MaxG: enc.decodeGridBits(make([]uint32, enc.Dims()), hi),
	}
}

// The shapes the benchmark runs must take the tables and the widest
// must not, or the agreement tests below compare a path with itself.
func TestTableSelectedByShape(t *testing.T) {
	if enc := mustEnc(t, 8, 16); enc.spread == nil || enc.gather == nil {
		t.Fatal("d=8, 16 bits runs without tables")
	}
	if enc := mustEnc(t, 225, MaxBits); enc.spread != nil || enc.gather != nil {
		t.Fatal("d=225, 32 bits built a table")
	}
}

func TestTableInterleaveMatchesBitLoop(t *testing.T) {
	eachKernelShape(t, func(t *testing.T, enc *Encoder, rng *rand.Rand) {
		z, want := make(ZAddr, enc.Words()), make(ZAddr, enc.Words())
		g := make([]uint32, enc.Dims())
		for trial := 0; trial < 200; trial++ {
			in := randGrid(rng, enc)
			switch trial {
			case 0:
				for i := range in {
					in[i] = 0
				}
			case 1:
				for i := range in {
					in[i] = enc.MaxGrid()
				}
			}
			enc.encodeGridBits(want, in)
			if !Equal(enc.EncodeGridInto(z, in), want) {
				t.Fatalf("d=%d bits=%d: EncodeGridInto(%v) = %v, bit loop %v", enc.Dims(), enc.Bits(), in, z, want)
			}
			if got := enc.DecodeGridInto(g, want); !equalU32(got, in) {
				t.Fatalf("d=%d bits=%d: DecodeGridInto(%v) = %v, want %v", enc.Dims(), enc.Bits(), want, got, in)
			}
		}
	})
}

// RegionOf against the definition, on random pairs and on the pairs
// that stress the mask arithmetic: equal addresses, a split at the very
// first bit, a split in the last bit, and prefixes that end mid-level.
func TestRegionFromGridMatchesReference(t *testing.T) {
	eachKernelShape(t, func(t *testing.T, enc *Encoder, rng *rand.Rand) {
		d, total := enc.Dims(), enc.TotalBits()
		check := func(label string, ga, gb []uint32) {
			t.Helper()
			alpha, beta := enc.EncodeGrid(ga), enc.EncodeGrid(gb)
			if Compare(alpha, beta) > 0 {
				alpha, beta, ga, gb = beta, alpha, gb, ga
			}
			want := refRegion(enc, alpha, beta)
			if got := enc.RegionOf(alpha, beta); !equalU32(got.MinG, want.MinG) || !equalU32(got.MaxG, want.MaxG) {
				t.Fatalf("d=%d bits=%d %s: RegionOf = %v/%v, want %v/%v", d, enc.Bits(), label, got.MinG, got.MaxG, want.MinG, want.MaxG)
			}
		}
		for trial := 0; trial < 100; trial++ {
			check("random", randGrid(rng, enc), randGrid(rng, enc))
		}
		g := randGrid(rng, enc)
		check("equal", g, g)
		top := append([]uint32(nil), g...)
		top[0] ^= 1 << uint(enc.Bits()-1)
		check("first-bit split", g, top)
		last := append([]uint32(nil), g...)
		last[d-1] ^= 1
		check("last-bit split", g, last)
		// Flip address bit cpl for every prefix length: all the
		// mid-level endings, cpl%d != 0 included.
		for cpl := 0; cpl < total; cpl += 1 + total/97 {
			other := append([]uint32(nil), g...)
			other[cpl%d] ^= 1 << uint(enc.Bits()-1-cpl/d)
			check("split mid-level", g, other)
		}
	})
}
