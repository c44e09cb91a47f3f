package point

import (
	"bytes"
	"encoding/gob"
	"io"
	"testing"
)

func testBlock(t *testing.T, rows, dims int) Block {
	t.Helper()
	bb := NewBlockBuilder(dims, rows)
	for i := 0; i < rows; i++ {
		r := bb.Extend()
		for k := range r {
			r[k] = float64(i*dims + k)
		}
	}
	b := bb.Build()
	if b.Len() != rows || b.Dims != dims {
		t.Fatalf("built %dx%d, want %dx%d", b.Len(), b.Dims, rows, dims)
	}
	return b
}

func TestBlockRowsAndViews(t *testing.T) {
	b := testBlock(t, 5, 3)
	pts := b.Points()
	for i, p := range pts {
		if !p.Equal(b.Row(i)) {
			t.Fatalf("row %d view mismatch", i)
		}
	}
	// Views alias the backing array (zero copy)...
	b.Row(2)[1] = -7
	if pts[2][1] != -7 {
		t.Error("Points() does not alias the backing array")
	}
	// ...but appending to a view must not clobber the next row.
	grown := append(b.Row(0), 99)
	if b.Row(1)[0] == 99 {
		t.Error("append to a row view clobbered its neighbor")
	}
	_ = grown
}

func TestBlockOfAndClone(t *testing.T) {
	pts := []Point{{1, 2}, {3, 4}, {5, 6}}
	b := BlockOf(2, pts)
	if b.Len() != 3 {
		t.Fatalf("Len = %d", b.Len())
	}
	pts[0][0] = 42 // BlockOf copies
	if b.Row(0)[0] != 1 {
		t.Error("BlockOf aliases its input")
	}
	if empty := BlockOf(4, nil); empty.Len() != 0 || empty.Dims != 4 {
		t.Errorf("empty BlockOf = %+v", empty)
	}
}

func TestBlockSliceSplitChunk(t *testing.T) {
	b := testBlock(t, 10, 2)
	s := b.Slice(3, 7)
	if s.Len() != 4 || !s.Row(0).Equal(b.Row(3)) {
		t.Fatalf("Slice(3,7) wrong: %+v", s)
	}
	var total int
	for _, n := range []int{0, 1, 3, 10, 99} {
		total = 0
		for _, c := range b.SplitN(n) {
			total += c.Len()
		}
		if total != 10 {
			t.Errorf("SplitN(%d) covers %d rows", n, total)
		}
	}
	if got := len(b.SplitN(3)); got != 3 {
		t.Errorf("SplitN(3) = %d chunks", got)
	}
	chunks := b.ChunkBy(4)
	if len(chunks) != 3 || chunks[2].Len() != 2 {
		t.Errorf("ChunkBy(4) = %d chunks, last %d rows", len(chunks), chunks[len(chunks)-1].Len())
	}
	// Sub-blocks are views.
	chunks[0].Data[0] = -5
	if b.Data[0] != -5 {
		t.Error("ChunkBy copied")
	}
}

func TestBlockBounds(t *testing.T) {
	b := BlockOf(2, []Point{{3, -1}, {0, 5}, {2, 2}})
	mins, maxs := b.UpdateBounds(nil, nil)
	if mins[0] != 0 || mins[1] != -1 || maxs[0] != 3 || maxs[1] != 5 {
		t.Fatalf("bounds = %v %v", mins, maxs)
	}
	mins, maxs = BlockOf(2, []Point{{-9, 9}}).UpdateBounds(mins, maxs)
	if mins[0] != -9 || maxs[1] != 9 {
		t.Fatalf("accumulated bounds = %v %v", mins, maxs)
	}
}

func TestBlockMarshalRoundTrip(t *testing.T) {
	for _, b := range []Block{
		testBlock(t, 7, 3),
		{Dims: 5},
		{},
		BlockOf(1, []Point{{-0.0}, {1e300}}),
	} {
		raw, err := b.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		var back Block
		if err := back.UnmarshalBinary(raw); err != nil {
			t.Fatal(err)
		}
		if back.Len() != b.Len() || (b.Len() > 0 && back.Dims != b.Dims) {
			t.Fatalf("round trip %dx%d -> %dx%d", b.Len(), b.Dims, back.Len(), back.Dims)
		}
		for i := range b.Data {
			if back.Data[i] != b.Data[i] {
				t.Fatalf("coord %d drifted: %v != %v", i, back.Data[i], b.Data[i])
			}
		}
		// Unmarshal must copy out of the caller's buffer.
		if len(raw) > blockHeaderLen && back.Len() > 0 {
			raw[blockHeaderLen] ^= 0xff
			if back.Data[0] != b.Data[0] {
				t.Fatal("UnmarshalBinary aliases its input")
			}
		}
	}
}

func TestBlockUnmarshalRejectsBadFrames(t *testing.T) {
	good, err := testBlock(t, 3, 2).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	bad := [][]byte{
		nil,
		good[:4],                                // truncated header
		good[:len(good)-1],                      // truncated payload
		append(append([]byte(nil), good...), 0), // trailing garbage
	}
	for i, data := range bad {
		var b Block
		if err := b.UnmarshalBinary(data); err == nil {
			t.Errorf("bad frame %d accepted", i)
		}
	}
}

func TestBlockGobRoundTrip(t *testing.T) {
	type msg struct {
		ID int
		B  Block
	}
	in := msg{ID: 7, B: testBlock(t, 4, 3)}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(in); err != nil {
		t.Fatal(err)
	}
	var out msg
	if err := gob.NewDecoder(&buf).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.ID != 7 || out.B.Len() != 4 || out.B.Dims != 3 {
		t.Fatalf("gob round trip = %+v", out)
	}
	for i := range in.B.Data {
		if out.B.Data[i] != in.B.Data[i] {
			t.Fatalf("coord %d drifted", i)
		}
	}
}

func TestBuilderDetaches(t *testing.T) {
	bb := NewBlockBuilder(2, 0)
	bb.Append(Point{1, 2})
	first := bb.Build()
	bb.Append(Point{3, 4})
	second := bb.Build()
	if first.Len() != 1 || second.Len() != 1 {
		t.Fatalf("builds hold %d and %d rows", first.Len(), second.Len())
	}
	if first.Row(0)[0] != 1 || second.Row(0)[0] != 3 {
		t.Error("builder arenas alias across Build")
	}
}

func TestSliceAndBlockSources(t *testing.T) {
	pts := []Point{{1, 1}, {2, 2}, {3, 3}, {4, 4}, {5, 5}}
	src := NewDatasetSource(MustDataset(2, pts))
	if _, err := src.Next(0); err == nil {
		t.Error("zero batch size accepted")
	}
	var rows, batches int
	for {
		b, err := src.Next(2)
		if err == io.EOF {
			if b.Len() != 0 {
				t.Errorf("io.EOF with %d rows", b.Len())
			}
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if b.Dims != 2 {
			t.Fatalf("dims %d", b.Dims)
		}
		for i := 0; i < b.Len(); i++ {
			if !b.Row(i).Equal(pts[rows+i]) {
				t.Fatalf("row %d drifted", rows+i)
			}
		}
		rows += b.Len()
		batches++
	}
	if rows != 5 || batches != 3 {
		t.Errorf("drained %d rows in %d batches", rows, batches)
	}
}
