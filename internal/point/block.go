package point

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"unsafe"
)

// Block is a flat, contiguous batch of points: Len() rows of Dims
// float64 coordinates stored back to back in one backing array. It is
// the bulk-transfer unit of the data plane — map chunks, routed
// groups, and skyline candidates all travel as Blocks — so moving a
// million points costs one allocation and one memcpy instead of a
// million pointer-chased slices.
//
// A Block is a view: Slice, Row, and Points share the backing array
// without copying. Rows handed out by Row and Points use three-index
// slicing, so appending to a row view reallocates instead of
// clobbering its neighbor.
type Block struct {
	// Dims is the row width. A Block with Dims == 0 must be empty.
	Dims int
	// Data holds Len()*Dims coordinates, row-major.
	Data []float64
}

// BlockOf copies pts into a freshly allocated contiguous Block. Every
// point must have dims coordinates.
func BlockOf(dims int, pts []Point) Block {
	if len(pts) == 0 {
		return Block{Dims: dims}
	}
	data := make([]float64, 0, dims*len(pts))
	for _, p := range pts {
		if len(p) != dims {
			panic(fmt.Sprintf("point: BlockOf: row has %d dims, want %d", len(p), dims))
		}
		data = append(data, p...)
	}
	return Block{Dims: dims, Data: data}
}

// Len returns the number of rows.
func (b Block) Len() int {
	if b.Dims <= 0 {
		return 0
	}
	return len(b.Data) / b.Dims
}

// Bytes returns the payload size of the backing array in bytes — the
// wire-accounting estimate for one block.
func (b Block) Bytes() int64 { return int64(len(b.Data)) * 8 }

// Row returns a zero-copy view of row i.
func (b Block) Row(i int) Point {
	lo := i * b.Dims
	return Point(b.Data[lo : lo+b.Dims : lo+b.Dims])
}

// Points materializes zero-copy row views: one slice allocation of
// Len() headers, no coordinate copies. The bridge into code that still
// speaks []Point (ZB-trees, the public API).
func (b Block) Points() []Point {
	if b.Len() == 0 {
		return nil
	}
	pts := make([]Point, b.Len())
	for i := range pts {
		pts[i] = b.Row(i)
	}
	return pts
}

// AppendPoints appends zero-copy row views to dst.
func (b Block) AppendPoints(dst []Point) []Point {
	for i := 0; i < b.Len(); i++ {
		dst = append(dst, b.Row(i))
	}
	return dst
}

// Slice returns the zero-copy sub-block of rows [lo, hi).
func (b Block) Slice(lo, hi int) Block {
	return Block{Dims: b.Dims, Data: b.Data[lo*b.Dims : hi*b.Dims : hi*b.Dims]}
}

// SplitN cuts the block into n near-equal contiguous sub-blocks
// without copying (at least one row each; fewer blocks when the input
// is small) — the positional sharding of the shared-memory executor.
func (b Block) SplitN(n int) []Block {
	rows := b.Len()
	if n < 1 {
		n = 1
	}
	if n > rows {
		n = rows
	}
	if n == 0 {
		return nil
	}
	out := make([]Block, 0, n)
	for i := 0; i < n; i++ {
		lo := i * rows / n
		hi := (i + 1) * rows / n
		if lo < hi {
			out = append(out, b.Slice(lo, hi))
		}
	}
	return out
}

// ChunkBy cuts the block into contiguous sub-blocks of at most size
// rows, without copying.
func (b Block) ChunkBy(size int) []Block {
	if size < 1 {
		size = 1
	}
	rows := b.Len()
	var out []Block
	for lo := 0; lo < rows; lo += size {
		hi := lo + size
		if hi > rows {
			hi = rows
		}
		out = append(out, b.Slice(lo, hi))
	}
	return out
}

// Clone deep-copies the block.
func (b Block) Clone() Block {
	return Block{Dims: b.Dims, Data: append([]float64(nil), b.Data...)}
}

// SumOrder returns b's row indices in the one order every sort-filter
// skyline walks, a linear extension of dominance: no row is dominated
// by a row after it. The key is the sum of the coordinates, each
// clamped to ±math.MaxFloat64; clamping and float addition are both
// monotone, so a dominator's key is never larger, and a sum of finite
// terms may overflow to ±Inf but never becomes NaN. Equal keys are
// broken by lexicographic order on the coordinates, in which a
// dominator comes first, and exact duplicates keep their input order.
func SumOrder(b Block) []int32 {
	type keyed struct {
		sum float64
		row int32
	}
	n := b.Len()
	keys := make([]keyed, n)
	for i := range keys {
		s := 0.0
		for _, v := range b.Row(i) {
			if v > math.MaxFloat64 {
				v = math.MaxFloat64
			} else if v < -math.MaxFloat64 {
				v = -math.MaxFloat64
			}
			s += v
		}
		keys[i] = keyed{s, int32(i)}
	}
	slices.SortFunc(keys, func(x, y keyed) int {
		if x.sum != y.sum {
			if x.sum < y.sum {
				return -1
			}
			return 1
		}
		p, q := b.Row(int(x.row)), b.Row(int(y.row))
		for k, v := range p {
			if v != q[k] {
				if v < q[k] {
					return -1
				}
				return 1
			}
		}
		return int(x.row) - int(y.row)
	})
	order := make([]int32, n)
	for i, k := range keys {
		order[i] = k.row
	}
	return order
}

// UpdateBounds folds the block's rows into a running per-dimension
// bounding box. Nil mins/maxs start a fresh box from the first row.
func (b Block) UpdateBounds(mins, maxs []float64) (newMins, newMaxs []float64) {
	rows := b.Len()
	if rows == 0 {
		return mins, maxs
	}
	i := 0
	if mins == nil {
		mins = append([]float64(nil), b.Row(0)...)
		maxs = append([]float64(nil), b.Row(0)...)
		i = 1
	}
	for ; i < rows; i++ {
		lo := i * b.Dims
		for k := 0; k < b.Dims; k++ {
			v := b.Data[lo+k]
			if v < mins[k] {
				mins[k] = v
			}
			if v > maxs[k] {
				maxs[k] = v
			}
		}
	}
	return mins, maxs
}

// blockHeaderLen is the marshaled frame header: dims and rows, both
// little-endian uint32.
const blockHeaderLen = 8

// maxBlockRows bounds a single marshaled frame.
const maxBlockRows = 1<<32 - 1

// hostLittleEndian reports whether this machine stores float64 words
// little-endian, enabling the zero-copy payload path.
var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// float64Bytes reinterprets f's backing array as raw bytes without
// copying. Only meaningful on little-endian hosts, where the in-memory
// layout already matches the wire format.
func float64Bytes(f []float64) []byte {
	if len(f) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(f))), len(f)*8)
}

// AppendBinary appends the block's wire frame to dst:
//
//	[dims uint32 LE][rows uint32 LE][rows*dims float64 LE]
//
// On little-endian hosts the payload is one append of the backing
// array — no per-point, per-coordinate encoding.
func (b Block) AppendBinary(dst []byte) ([]byte, error) {
	rows := b.Len()
	if b.Dims < 0 || rows > maxBlockRows {
		return nil, fmt.Errorf("point: block not marshalable: dims=%d rows=%d", b.Dims, rows)
	}
	if b.Dims > 0 && len(b.Data)%b.Dims != 0 {
		return nil, fmt.Errorf("point: ragged block: %d coords, dims=%d", len(b.Data), b.Dims)
	}
	if b.Dims == 0 && len(b.Data) > 0 {
		return nil, fmt.Errorf("point: dimensionless block holds %d coords", len(b.Data))
	}
	var hdr [blockHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(b.Dims))
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(rows))
	dst = append(dst, hdr[:]...)
	if hostLittleEndian {
		return append(dst, float64Bytes(b.Data)...), nil
	}
	var buf [8]byte
	for _, v := range b.Data {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		dst = append(dst, buf[:]...)
	}
	return dst, nil
}

// MarshalBinary implements encoding.BinaryMarshaler with the
// AppendBinary frame. gob picks this up automatically, and the framed
// transport appends the same frame directly, so a Block crosses the
// wire as one opaque byte blob either way.
func (b Block) MarshalBinary() ([]byte, error) {
	return b.AppendBinary(make([]byte, 0, blockHeaderLen+8*len(b.Data)))
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler. The payload
// is copied out of data (decoders reuse their buffers); on
// little-endian hosts the copy is a single memmove.
func (b *Block) UnmarshalBinary(data []byte) error {
	if len(data) < blockHeaderLen {
		return fmt.Errorf("point: block frame truncated: %d bytes", len(data))
	}
	dims := int(binary.LittleEndian.Uint32(data[0:4]))
	rows := int(binary.LittleEndian.Uint32(data[4:8]))
	payload := data[blockHeaderLen:]
	if dims > 1<<20 {
		return fmt.Errorf("point: implausible block dims %d", dims)
	}
	if dims == 0 && rows > 0 {
		return fmt.Errorf("point: dimensionless block frame with %d rows", rows)
	}
	n := dims * rows
	if len(payload) != n*8 {
		return fmt.Errorf("point: block frame has %d payload bytes, want %d", len(payload), n*8)
	}
	b.Dims = dims
	if n == 0 {
		b.Data = nil
		return nil
	}
	b.Data = make([]float64, n)
	if hostLittleEndian {
		copy(float64Bytes(b.Data), payload)
		return nil
	}
	for i := range b.Data {
		b.Data[i] = math.Float64frombits(binary.LittleEndian.Uint64(payload[i*8:]))
	}
	return nil
}

// GobEncode delegates to MarshalBinary so gob never falls back to
// field-by-field struct encoding for blocks.
func (b Block) GobEncode() ([]byte, error) { return b.MarshalBinary() }

// GobDecode delegates to UnmarshalBinary.
func (b *Block) GobDecode(data []byte) error { return b.UnmarshalBinary(data) }

// BlockBuilder accumulates rows into one growing arena and hands the
// result off as a Block. It amortizes growth the way bytes.Buffer
// does; Build detaches the arena, so a builder can be reused without
// aliasing previously built blocks.
type BlockBuilder struct {
	dims int
	data []float64
}

// NewBlockBuilder creates a builder for dims-wide rows with capacity
// for capRows rows (0 for lazy growth).
func NewBlockBuilder(dims, capRows int) *BlockBuilder {
	if dims <= 0 {
		panic(fmt.Sprintf("point: builder dims must be positive, got %d", dims))
	}
	bb := &BlockBuilder{dims: dims}
	if capRows > 0 {
		bb.data = make([]float64, 0, dims*capRows)
	}
	return bb
}

// Dims returns the row width.
func (bb *BlockBuilder) Dims() int { return bb.dims }

// Len returns the number of rows accumulated so far.
func (bb *BlockBuilder) Len() int { return len(bb.data) / bb.dims }

// Append copies one point into the arena.
func (bb *BlockBuilder) Append(p Point) {
	if len(p) != bb.dims {
		panic(fmt.Sprintf("point: builder row has %d dims, want %d", len(p), bb.dims))
	}
	bb.data = append(bb.data, p...)
}

// AppendBlock copies all of b's rows into the arena.
func (bb *BlockBuilder) AppendBlock(b Block) {
	if b.Len() == 0 {
		return
	}
	if b.Dims != bb.dims {
		panic(fmt.Sprintf("point: builder appending %d-dim block, want %d", b.Dims, bb.dims))
	}
	bb.data = append(bb.data, b.Data...)
}

// Extend appends one zeroed row and returns its view, for generators
// that fill coordinates in place without a staging allocation. The
// view is valid only until the next builder call (growth may move the
// arena): fill it before appending again.
func (bb *BlockBuilder) Extend() Point {
	lo := len(bb.data)
	for i := 0; i < bb.dims; i++ {
		bb.data = append(bb.data, 0)
	}
	return Point(bb.data[lo : lo+bb.dims : lo+bb.dims])
}

// Build detaches and returns the accumulated Block. The builder is
// left empty and may keep accumulating into a fresh arena.
func (bb *BlockBuilder) Build() Block {
	b := Block{Dims: bb.dims, Data: bb.data}
	bb.data = nil
	return b
}
