// Package codec reads and writes datasets. Two formats:
//
//   - CSV: one point per line, comma-separated coordinates; blank
//     lines and '#' comments ignored. The interchange format of the
//     skygen/skyline CLIs.
//   - ZSKY binary: a compact self-describing format (magic, version,
//     dims, count, little-endian float64 payload, CRC-32 of the
//     payload) for large benchmark datasets where CSV parsing would
//     dominate load time. Truncation and corruption are detected.
package codec

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"math"
	"os"
	"strconv"
	"strings"

	"zskyline/internal/point"
)

// Magic identifies the binary format.
const Magic = "ZSKY"

// Version is the current binary format version.
const Version uint16 = 1

// WriteBinary serializes ds in ZSKY format.
func WriteBinary(w io.Writer, ds *point.Dataset) error {
	if ds == nil || ds.Dims <= 0 {
		return fmt.Errorf("codec: nil or dimensionless dataset")
	}
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(Magic); err != nil {
		return err
	}
	hdr := make([]byte, 14)
	binary.LittleEndian.PutUint16(hdr[0:2], Version)
	binary.LittleEndian.PutUint32(hdr[2:6], uint32(ds.Dims))
	binary.LittleEndian.PutUint64(hdr[6:14], uint64(ds.Len()))
	if _, err := bw.Write(hdr); err != nil {
		return err
	}
	crc := crc32.NewIEEE()
	buf := make([]byte, 8)
	for _, p := range ds.Points {
		for _, v := range p {
			binary.LittleEndian.PutUint64(buf, math.Float64bits(v))
			if _, err := bw.Write(buf); err != nil {
				return err
			}
			crc.Write(buf)
		}
	}
	binary.LittleEndian.PutUint32(buf[:4], crc.Sum32())
	if _, err := bw.Write(buf[:4]); err != nil {
		return err
	}
	return bw.Flush()
}

// ReadBinary parses a ZSKY stream, validating magic, version, payload
// length and checksum.
func ReadBinary(r io.Reader) (*point.Dataset, error) {
	br, err := NewBinaryReader(r)
	if err != nil {
		return nil, err
	}
	var pts []point.Point
	err = br.Blocks(func(int) int { return 1 << 12 }, func(b point.Block) error {
		pts = b.AppendPoints(pts)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return point.NewDataset(br.Dims(), pts)
}

// WriteCSV serializes ds as CSV with full float64 round-trip precision.
func WriteCSV(w io.Writer, ds *point.Dataset) error {
	bw := bufio.NewWriter(w)
	for _, p := range ds.Points {
		for i, v := range p {
			if i > 0 {
				if err := bw.WriteByte(','); err != nil {
					return err
				}
			}
			if _, err := bw.WriteString(strconv.FormatFloat(v, 'g', -1, 64)); err != nil {
				return err
			}
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadCSV parses CSV points; every line must have the same number of
// fields. Blank lines and lines starting with '#' are skipped.
func ReadCSV(r io.Reader) (*point.Dataset, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var pts []point.Point
	dims := -1
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Split(line, ",")
		if dims == -1 {
			dims = len(fields)
		}
		if len(fields) != dims {
			return nil, fmt.Errorf("codec: line %d has %d fields, want %d", lineNo, len(fields), dims)
		}
		p := make(point.Point, dims)
		for i, f := range fields {
			v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
			if err != nil {
				return nil, fmt.Errorf("codec: line %d field %d: %w", lineNo, i+1, err)
			}
			p[i] = v
		}
		pts = append(pts, p)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if dims == -1 {
		return nil, fmt.Errorf("codec: no data rows")
	}
	return point.NewDataset(dims, pts)
}

// ReadNamedCSV parses a CSV whose first data line may be a header of
// attribute names (detected by any non-numeric field). When no header
// is present, attributes are named c0, c1, ... in column order.
func ReadNamedCSV(r io.Reader) (attrs []string, rows [][]float64, err error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Split(line, ",")
		if attrs == nil && rows == nil {
			// First data line: header if any field fails to parse.
			numeric := true
			for _, f := range fields {
				if _, err := strconv.ParseFloat(strings.TrimSpace(f), 64); err != nil {
					numeric = false
					break
				}
			}
			if !numeric {
				attrs = make([]string, len(fields))
				for i, f := range fields {
					attrs[i] = strings.TrimSpace(f)
				}
				continue
			}
			attrs = make([]string, len(fields))
			for i := range attrs {
				attrs[i] = fmt.Sprintf("c%d", i)
			}
		}
		if len(fields) != len(attrs) {
			return nil, nil, fmt.Errorf("codec: line %d has %d fields, want %d", lineNo, len(fields), len(attrs))
		}
		row := make([]float64, len(fields))
		for i, f := range fields {
			v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
			if err != nil {
				return nil, nil, fmt.Errorf("codec: line %d field %d: %w", lineNo, i+1, err)
			}
			row[i] = v
		}
		rows = append(rows, row)
	}
	if err := sc.Err(); err != nil {
		return nil, nil, err
	}
	if attrs == nil {
		return nil, nil, fmt.Errorf("codec: no data rows")
	}
	return attrs, rows, nil
}

// BinaryReader streams a ZSKY file incrementally, for datasets too
// large to hold in memory. The CRC is verified when the stream is
// fully consumed.
type BinaryReader struct {
	br        *bufio.Reader
	dims      int
	remaining uint64
	crc       hash.Hash32
	buf       []byte
}

// readChunk is the bytes NextBlock reads, checksums and decodes at a
// time.
const readChunk = 1 << 16

// NewBinaryReader validates the header and prepares to stream points.
func NewBinaryReader(r io.Reader) (*BinaryReader, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, 4)
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("codec: reading magic: %w", err)
	}
	if string(magic) != Magic {
		return nil, fmt.Errorf("codec: bad magic %q", magic)
	}
	hdr := make([]byte, 14)
	if _, err := io.ReadFull(br, hdr); err != nil {
		return nil, fmt.Errorf("codec: reading header: %w", err)
	}
	if v := binary.LittleEndian.Uint16(hdr[0:2]); v != Version {
		return nil, fmt.Errorf("codec: unsupported version %d", v)
	}
	dims := int(binary.LittleEndian.Uint32(hdr[2:6]))
	count := binary.LittleEndian.Uint64(hdr[6:14])
	if dims <= 0 || dims > 1<<20 {
		return nil, fmt.Errorf("codec: implausible dims %d", dims)
	}
	if count > 1<<40 {
		return nil, fmt.Errorf("codec: implausible count %d", count)
	}
	return &BinaryReader{br: br, dims: dims, remaining: count,
		crc: crc32.NewIEEE(), buf: make([]byte, readChunk)}, nil
}

// ReadFile opens the ZSKY file at path, checks its header, and hands
// the reader to f; the file is closed when f returns.
func ReadFile(path string, f func(*BinaryReader) error) error {
	fh, err := os.Open(path)
	if err != nil {
		return err
	}
	defer fh.Close()
	br, err := NewBinaryReader(fh)
	if err != nil {
		return err
	}
	return f(br)
}

// Dims returns the stream's dimensionality.
func (b *BinaryReader) Dims() int { return b.dims }

// Remaining returns how many points are left to read.
func (b *BinaryReader) Remaining() uint64 { return b.remaining }

// NextBlock reads up to max points into one contiguous block. io.EOF
// (with an empty block) signals exhaustion after checksum verification.
// The header's count is not trusted with an allocation: the block grows
// as its bytes arrive, so a short input claiming a huge payload fails
// having spent about what it holds.
func (b *BinaryReader) NextBlock(max int) (point.Block, error) {
	if max < 1 {
		return point.Block{}, fmt.Errorf("codec: batch size must be positive")
	}
	if b.remaining == 0 {
		if b.crc != nil {
			if _, err := io.ReadFull(b.br, b.buf[:4]); err != nil {
				return point.Block{}, fmt.Errorf("codec: missing checksum: %w", err)
			}
			if got := binary.LittleEndian.Uint32(b.buf[:4]); got != b.crc.Sum32() {
				return point.Block{}, fmt.Errorf("codec: checksum mismatch")
			}
			b.crc = nil
		}
		return point.Block{}, io.EOF
	}
	n := min(uint64(max), b.remaining)
	want := int(n) * b.dims
	data := make([]float64, 0, min(want, readChunk/8))
	for len(data) < want {
		chunk := b.buf[:8*min(want-len(data), readChunk/8)]
		if _, err := io.ReadFull(b.br, chunk); err != nil {
			return point.Block{}, fmt.Errorf("codec: truncated payload: %w", err)
		}
		b.crc.Write(chunk)
		for i := 0; i < len(chunk); i += 8 {
			data = append(data, math.Float64frombits(binary.LittleEndian.Uint64(chunk[i:])))
		}
	}
	b.remaining -= n
	return point.Block{Dims: b.dims, Data: data}, nil
}

// Blocks streams the rest of the stream through f in order, block i
// holding at most size(i) rows (fewer only at the end), and verifies
// the checksum once the payload is read: the one loop every consumer
// of a ZSKY stream reads it with.
func (b *BinaryReader) Blocks(size func(i int) int, f func(point.Block) error) error {
	for i := 0; b.remaining > 0; i++ {
		blk, err := b.NextBlock(size(i))
		if err != nil {
			return err
		}
		if err := f(blk); err != nil {
			return err
		}
	}
	if _, err := b.NextBlock(1); err != io.EOF {
		return err
	}
	return nil
}
