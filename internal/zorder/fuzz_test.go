package zorder

import (
	"math/rand"
	"testing"
)

// FuzzEncodeDecode: every grid coordinate vector must roundtrip, and
// monotonicity must hold under arbitrary fuzz-chosen inputs.
func FuzzEncodeDecode(f *testing.F) {
	f.Add(uint16(3), uint16(7), uint32(5), uint32(9))
	f.Fuzz(func(t *testing.T, dRaw, bitsRaw uint16, a, b uint32) {
		dims := int(dRaw%12) + 1
		bits := int(bitsRaw%MaxBits) + 1
		enc, err := NewUnitEncoder(dims, bits)
		if err != nil {
			t.Fatal(err)
		}
		ga := make([]uint32, dims)
		gb := make([]uint32, dims)
		for i := range ga {
			ga[i] = (a + uint32(i)*2654435761) & enc.MaxGrid()
			gb[i] = (b + uint32(i)*40503) & enc.MaxGrid()
		}
		if got := enc.DecodeGrid(enc.EncodeGrid(ga)); !equalU32(got, ga) {
			t.Fatalf("roundtrip %v -> %v", ga, got)
		}
		// Monotonicity: componentwise min encodes <= both.
		lo := make([]uint32, dims)
		for i := range lo {
			lo[i] = ga[i]
			if gb[i] < lo[i] {
				lo[i] = gb[i]
			}
		}
		zlo := enc.EncodeGrid(lo)
		if Compare(zlo, enc.EncodeGrid(ga)) > 0 || Compare(zlo, enc.EncodeGrid(gb)) > 0 {
			t.Fatalf("monotonicity violated: lo=%v a=%v b=%v", lo, ga, gb)
		}
	})
}

// FuzzEncodeDecodeGrid: whatever the shape selects — tables or bit
// loops — EncodeGridInto and DecodeGridInto must agree with the bit
// loops bit for bit and round-trip. Seeds cover one-word, straddling
// and many-word addresses, with and without tables.
func FuzzEncodeDecodeGrid(f *testing.F) {
	f.Add(uint16(8), uint16(16), int64(1))   // two words, both tables
	f.Add(uint16(3), uint16(32), int64(2))   // levels straddle the word boundary
	f.Add(uint16(12), uint16(16), int64(3))  // three words, gather table only
	f.Add(uint16(225), uint16(32), int64(4)) // 113 words, no table
	f.Add(uint16(1), uint16(1), int64(5))
	f.Fuzz(func(t *testing.T, dRaw, bitsRaw uint16, seed int64) {
		enc, err := NewUnitEncoder(int(dRaw%256)+1, int(bitsRaw%MaxBits)+1)
		if err != nil {
			t.Fatal(err)
		}
		g := randGrid(rand.New(rand.NewSource(seed)), enc)
		z := enc.EncodeGrid(g)
		if want := enc.encodeGridBits(make(ZAddr, enc.Words()), g); !Equal(z, want) {
			t.Fatalf("d=%d bits=%d: encode %v, bit loop %v", enc.Dims(), enc.Bits(), z, want)
		}
		back := enc.DecodeGrid(z)
		if want := enc.decodeGridBits(make([]uint32, enc.Dims()), z); !equalU32(back, want) {
			t.Fatalf("d=%d bits=%d: decode %v, bit loop %v", enc.Dims(), enc.Bits(), back, want)
		}
		if !equalU32(back, g) {
			t.Fatalf("d=%d bits=%d: roundtrip %v -> %v", enc.Dims(), enc.Bits(), g, back)
		}
	})
}

// FuzzZColEncode: the columnar bulk encoder must agree with the scalar
// path row for row — identical addresses, identical ordering, and
// identical RZ-regions derived from adjacent rows.
func FuzzZColEncode(f *testing.F) {
	f.Add(uint16(4), uint16(8), int64(1), uint8(9))
	f.Add(uint16(1), uint16(1), int64(42), uint8(1))
	f.Add(uint16(11), uint16(32), int64(-3), uint8(17))
	f.Fuzz(func(t *testing.T, dRaw, bitsRaw uint16, seed int64, nRaw uint8) {
		dims := int(dRaw%12) + 1
		bits := int(bitsRaw%MaxBits) + 1
		n := int(nRaw%40) + 1
		enc, err := NewUnitEncoder(dims, bits)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		b := randBlock(rng, n, dims)
		zc := enc.EncodeBlock(ZCol{}, b)
		if zc.Len() != n || zc.Words != enc.Words() {
			t.Fatalf("EncodeBlock shape %d×%d, want %d×%d", zc.Len(), zc.Words, n, enc.Words())
		}
		for i := 0; i < n; i++ {
			want := enc.Encode(b.Row(i))
			if !Equal(zc.At(i), want) {
				t.Fatalf("row %d: bulk %v != scalar %v", i, zc.At(i), want)
			}
			if j := (i + 1) % n; true {
				if got, wantC := zc.Compare(i, j), Compare(want, enc.Encode(b.Row(j))); got != wantC {
					t.Fatalf("Compare(%d,%d) = %d, scalar says %d", i, j, got, wantC)
				}
			}
		}
		// Regions from column views must equal regions from scalar addrs.
		for i := 0; i+1 < n; i++ {
			alpha, beta := zc.At(i), zc.At(i+1)
			if Compare(alpha, beta) > 0 {
				alpha, beta = beta, alpha
			}
			sa, sb := enc.Encode(b.Row(i)), enc.Encode(b.Row(i+1))
			if Compare(sa, sb) > 0 {
				sa, sb = sb, sa
			}
			got, want := enc.RegionOf(alpha, beta), enc.RegionOf(sa, sb)
			if !equalU32(got.MinG, want.MinG) || !equalU32(got.MaxG, want.MaxG) {
				t.Fatalf("rows %d,%d: region %v/%v, want %v/%v",
					i, i+1, got.MinG, got.MaxG, want.MinG, want.MaxG)
			}
		}
	})
}

func equalU32(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
