package zorder

import (
	"bytes"
	"encoding/gob"
	"math/rand"
	"testing"

	"zskyline/internal/point"
)

func randBlock(rng *rand.Rand, n, dims int) point.Block {
	pts := make([]point.Point, n)
	for i := range pts {
		p := make(point.Point, dims)
		for d := range p {
			p[d] = rng.Float64()
		}
		pts[i] = p
	}
	return point.BlockOf(dims, pts)
}

func TestEncodeBlockMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, dims := range []int{1, 2, 3, 5, 8, 11} {
		for _, bits := range []int{1, 4, 13, 32} {
			enc, err := NewUnitEncoder(dims, bits)
			if err != nil {
				t.Fatal(err)
			}
			b := randBlock(rng, 97, dims)
			zc := enc.EncodeBlock(ZCol{}, b)
			if zc.Len() != b.Len() || zc.Words != enc.Words() {
				t.Fatalf("dims=%d bits=%d: got %d rows stride %d, want %d rows stride %d",
					dims, bits, zc.Len(), zc.Words, b.Len(), enc.Words())
			}
			for i := 0; i < b.Len(); i++ {
				want := enc.Encode(b.Row(i))
				if !Equal(zc.At(i), want) {
					t.Fatalf("dims=%d bits=%d row %d: EncodeBlock %v != Encode %v",
						dims, bits, i, zc.At(i), want)
				}
			}
		}
	}
}

func TestEncodeBlockGrid(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	enc, err := NewUnitEncoder(6, 10)
	if err != nil {
		t.Fatal(err)
	}
	b := randBlock(rng, 64, 6)
	zc, grid := enc.EncodeBlockGrid(ZCol{}, nil, b)
	if len(grid) != b.Len()*enc.Dims() {
		t.Fatalf("grid arena %d entries, want %d", len(grid), b.Len()*enc.Dims())
	}
	for i := 0; i < b.Len(); i++ {
		wantG := enc.Grid(b.Row(i))
		gotG := grid[i*enc.Dims() : (i+1)*enc.Dims()]
		if !equalU32(gotG, wantG) {
			t.Fatalf("row %d grid %v, want %v", i, gotG, wantG)
		}
		if got := enc.DecodeGrid(zc.At(i)); !equalU32(got, wantG) {
			t.Fatalf("row %d decoded grid %v, want %v", i, got, wantG)
		}
	}
	// Arena reuse: re-encoding into the returned storage must not grow it.
	zc2, grid2 := enc.EncodeBlockGrid(zc, grid, b)
	if &zc2.Data[0] != &zc.Data[0] || &grid2[0] != &grid[0] {
		t.Fatal("EncodeBlockGrid reallocated despite sufficient capacity")
	}
}

func TestEncodeIntoAndRegionInto(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	enc, err := NewUnitEncoder(5, 12)
	if err != nil {
		t.Fatal(err)
	}
	g := make([]uint32, enc.Dims())
	z := make(ZAddr, enc.Words())
	for trial := 0; trial < 50; trial++ {
		b := randBlock(rng, 2, 5)
		p, q := b.Row(0), b.Row(1)
		if !Equal(enc.EncodeInto(z, g, p), enc.Encode(p)) {
			t.Fatalf("EncodeInto disagrees with Encode for %v", p)
		}
		zp, zq := enc.Encode(p), enc.Encode(q)
		alpha, beta := zp, zq
		if Compare(alpha, beta) > 0 {
			alpha, beta = beta, alpha
		}
		want := refRegion(enc, alpha, beta)
		got := enc.RegionOf(alpha, beta)
		if !equalU32(got.MinG, want.MinG) || !equalU32(got.MaxG, want.MaxG) {
			t.Fatalf("RegionOf %v/%v, want %v/%v", got.MinG, got.MaxG, want.MinG, want.MaxG)
		}
	}
}

func TestZColSliceAndCompare(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	enc, err := NewUnitEncoder(4, 16)
	if err != nil {
		t.Fatal(err)
	}
	b := randBlock(rng, 40, 4)
	zc := enc.EncodeBlock(ZCol{}, b)
	for i := 0; i < zc.Len(); i++ {
		for j := 0; j < zc.Len(); j++ {
			if got, want := zc.Compare(i, j), Compare(zc.At(i), zc.At(j)); got != want {
				t.Fatalf("Compare(%d,%d) = %d, want %d", i, j, got, want)
			}
		}
	}
	sub := zc.Slice(10, 25)
	if sub.Len() != 15 {
		t.Fatalf("slice len %d, want 15", sub.Len())
	}
	for i := 0; i < sub.Len(); i++ {
		if !Equal(sub.At(i), zc.At(10+i)) {
			t.Fatalf("slice row %d mismatch", i)
		}
	}
	// Three-index slicing: appending to the sub-column must not clobber
	// the parent's row 25.
	before := zc.At(25).Clone()
	sub.AppendAddr(zc.At(0))
	if !Equal(zc.At(25), before) {
		t.Fatal("append to slice clobbered parent column")
	}
}

func TestZColAppend(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	enc, err := NewUnitEncoder(3, 20)
	if err != nil {
		t.Fatal(err)
	}
	b := randBlock(rng, 12, 3)
	zc := enc.EncodeBlock(ZCol{}, b)
	out := ZCol{Words: zc.Words}
	for i := 0; i < 4; i++ {
		out.AppendAddr(zc.At(i))
	}
	for i := 4; i < 8; i++ {
		out.AppendRow(zc, i)
	}
	out.AppendCol(zc.Slice(8, 12))
	if out.Len() != 12 {
		t.Fatalf("appended column has %d rows, want 12", out.Len())
	}
	for i := 0; i < 12; i++ {
		if !Equal(out.At(i), zc.At(i)) {
			t.Fatalf("row %d mismatch after append", i)
		}
	}
	clone := zc.Clone()
	zc.Data[0] ^= 1
	if Equal(clone.At(0), zc.At(0)) {
		t.Fatal("Clone shares storage with source")
	}
}

func TestZColMarshalRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	enc, err := NewUnitEncoder(7, 9)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, 1, 33} {
		zc := enc.EncodeBlock(ZCol{}, randBlock(rng, n, 7))
		raw, err := zc.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		var back ZCol
		if err := back.UnmarshalBinary(raw); err != nil {
			t.Fatal(err)
		}
		if back.Len() != zc.Len() || back.Words != zc.Words {
			t.Fatalf("n=%d: roundtrip %d rows stride %d, want %d/%d",
				n, back.Len(), back.Words, zc.Len(), zc.Words)
		}
		for i := 0; i < zc.Len(); i++ {
			if !Equal(back.At(i), zc.At(i)) {
				t.Fatalf("n=%d row %d mismatch after roundtrip", n, i)
			}
		}
		// Gob path (the rule-blob escape hatch).
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(zc); err != nil {
			t.Fatal(err)
		}
		var gback ZCol
		if err := gob.NewDecoder(&buf).Decode(&gback); err != nil {
			t.Fatal(err)
		}
		if gback.Len() != zc.Len() {
			t.Fatalf("n=%d: gob roundtrip %d rows, want %d", n, gback.Len(), zc.Len())
		}
	}
	var zero ZCol
	if err := zero.UnmarshalBinary([]byte{1, 2, 3}); err == nil {
		t.Fatal("truncated frame decoded without error")
	}
	ragged := ZCol{Words: 2, Data: []uint64{1, 2, 3}}
	if _, err := ragged.MarshalBinary(); err == nil {
		t.Fatal("ragged column marshaled without error")
	}
}
