package zorder

import (
	"encoding/binary"
	"fmt"

	"zskyline/internal/point"
)

// ZCol is a columnar arena of Z-addresses: Len() addresses of a fixed
// Words stride packed back to back in one []uint64. It is the
// Z-address counterpart of point.Block — the unit the pipeline encodes
// exactly once per query and then threads through routing, local
// Z-search, and Z-merge, instead of re-encoding (or cloning) a ZAddr
// per point per phase.
//
// A ZCol is a view the same way a Block is: At and Slice share the
// backing array without copying, and row views use three-index slicing
// so appending to one reallocates instead of clobbering its neighbor.
// Row i of a ZCol built by Encoder.EncodeBlock is always the address of
// row i of the source block.
type ZCol struct {
	// Words is the per-address stride. A ZCol with Words == 0 is empty.
	Words int
	// Data holds Len()*Words packed words, address-major.
	Data []uint64
}

// Len returns the number of addresses.
func (c ZCol) Len() int {
	if c.Words <= 0 {
		return 0
	}
	return len(c.Data) / c.Words
}

// At returns a zero-copy view of address i.
func (c ZCol) At(i int) ZAddr {
	lo := i * c.Words
	return ZAddr(c.Data[lo : lo+c.Words : lo+c.Words])
}

// Compare orders addresses i and j along the Z-curve without
// materializing views.
func (c ZCol) Compare(i, j int) int {
	a := c.Data[i*c.Words : (i+1)*c.Words]
	b := c.Data[j*c.Words : (j+1)*c.Words]
	for k := range a {
		if a[k] != b[k] {
			if a[k] < b[k] {
				return -1
			}
			return 1
		}
	}
	return 0
}

// Slice returns the zero-copy sub-column of addresses [lo, hi).
func (c ZCol) Slice(lo, hi int) ZCol {
	return ZCol{Words: c.Words, Data: c.Data[lo*c.Words : hi*c.Words : hi*c.Words]}
}

// AppendAddr appends one address (which must have Words words) to the
// column's arena.
func (c *ZCol) AppendAddr(z ZAddr) {
	if len(z) != c.Words {
		panic(fmt.Sprintf("zorder: appending %d-word address to %d-word column", len(z), c.Words))
	}
	c.Data = append(c.Data, z...)
}

// AppendRow appends address i of src. Strides must match.
func (c *ZCol) AppendRow(src ZCol, i int) {
	if src.Words != c.Words {
		panic(fmt.Sprintf("zorder: appending row of %d-word column to %d-word column", src.Words, c.Words))
	}
	c.Data = append(c.Data, src.Data[i*src.Words:(i+1)*src.Words]...)
}

// AppendCol appends all of src's addresses. Strides must match.
func (c *ZCol) AppendCol(src ZCol) {
	if src.Len() == 0 {
		return
	}
	if src.Words != c.Words {
		panic(fmt.Sprintf("zorder: appending %d-word column to %d-word column", src.Words, c.Words))
	}
	c.Data = append(c.Data, src.Data...)
}

// EncodeBlock fills dst with one Z-address per row of b — the columnar
// bulk encode of the data plane. dst's backing array is reused when it
// has capacity; quantization scratch is shared across rows, so the
// whole block costs at most one allocation. The returned column has
// Words = e.Words() and row i holding the address of b.Row(i).
func (e *Encoder) EncodeBlock(dst ZCol, b point.Block) ZCol {
	dst, _ = e.encodeBlock(dst, nil, b, false)
	return dst
}

// EncodeBlockGrid is EncodeBlock but additionally fills a columnar
// grid-coordinate arena (Dims() stride per row) in the same
// quantization pass — what index builds consume. grid's backing array
// is reused when it has capacity.
func (e *Encoder) EncodeBlockGrid(dst ZCol, grid []uint32, b point.Block) (ZCol, []uint32) {
	return e.encodeBlock(dst, grid, b, true)
}

func (e *Encoder) encodeBlock(dst ZCol, grid []uint32, b point.Block, wantGrid bool) (ZCol, []uint32) {
	rows := b.Len()
	need := rows * e.words
	if cap(dst.Data) < need {
		dst.Data = make([]uint64, need)
	} else {
		dst.Data = dst.Data[:need]
	}
	dst.Words = e.words
	if wantGrid {
		gneed := rows * e.dims
		if cap(grid) < gneed {
			grid = make([]uint32, gneed)
		} else {
			grid = grid[:gneed]
		}
	}
	var gbuf [8]uint32
	g := gbuf[:0]
	if e.dims <= len(gbuf) {
		g = gbuf[:e.dims]
	} else {
		g = make([]uint32, e.dims)
	}
	for i := 0; i < rows; i++ {
		if wantGrid {
			g = grid[i*e.dims : (i+1)*e.dims]
		}
		e.GridInto(g, b.Row(i))
		e.EncodeGridInto(dst.At(i), g)
	}
	return dst, grid
}

// zcolHeaderLen is the marshaled frame header: words and rows, both
// little-endian uint32.
const zcolHeaderLen = 8

// AppendBinary appends the column's wire frame to dst:
//
//	[words uint32 LE][rows uint32 LE][rows*words uint64 LE]
func (c ZCol) AppendBinary(dst []byte) ([]byte, error) {
	rows := c.Len()
	if c.Words < 0 || c.Words > MaxBits*1024 {
		return nil, fmt.Errorf("zorder: column not marshalable: words=%d", c.Words)
	}
	if c.Words > 0 && len(c.Data)%c.Words != 0 {
		return nil, fmt.Errorf("zorder: ragged column: %d words, stride %d", len(c.Data), c.Words)
	}
	if c.Words == 0 && len(c.Data) > 0 {
		return nil, fmt.Errorf("zorder: strideless column holds %d words", len(c.Data))
	}
	var hdr [zcolHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(c.Words))
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(rows))
	dst = append(dst, hdr[:]...)
	var buf [8]byte
	for _, w := range c.Data {
		binary.LittleEndian.PutUint64(buf[:], w)
		dst = append(dst, buf[:]...)
	}
	return dst, nil
}

// MarshalBinary implements encoding.BinaryMarshaler with the
// AppendBinary frame, so gob (and anything else honoring the
// interface) ships a ZCol as one opaque blob instead of a per-element
// encode. The framed transport appends the same frame directly.
func (c ZCol) MarshalBinary() ([]byte, error) {
	return c.AppendBinary(make([]byte, 0, zcolHeaderLen+8*len(c.Data)))
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler. The payload is
// copied out of data (decoders reuse their buffers).
func (c *ZCol) UnmarshalBinary(data []byte) error {
	if len(data) < zcolHeaderLen {
		return fmt.Errorf("zorder: column frame truncated: %d bytes", len(data))
	}
	words := int(binary.LittleEndian.Uint32(data[0:4]))
	rows := int(binary.LittleEndian.Uint32(data[4:8]))
	payload := data[zcolHeaderLen:]
	if words > MaxBits*1024 {
		return fmt.Errorf("zorder: implausible column stride %d", words)
	}
	if words == 0 && rows > 0 {
		return fmt.Errorf("zorder: strideless column frame with %d rows", rows)
	}
	n := words * rows
	if len(payload) != n*8 {
		return fmt.Errorf("zorder: column frame has %d payload bytes, want %d", len(payload), n*8)
	}
	c.Words = words
	if n == 0 {
		c.Data = nil
		return nil
	}
	c.Data = make([]uint64, n)
	for i := range c.Data {
		c.Data[i] = binary.LittleEndian.Uint64(payload[i*8:])
	}
	return nil
}
