package point

import (
	"fmt"
	"io"
)

// SliceSource streams an in-memory []Point as Blocks, copying rows into
// contiguous storage block by block — the bridge from the
// pointer-per-point world onto the block data plane.
type SliceSource struct {
	dims int
	pts  []Point
	off  int
}

// NewDatasetSource streams a Dataset without copying it up front.
func NewDatasetSource(ds *Dataset) *SliceSource {
	return &SliceSource{dims: ds.Dims, pts: ds.Points}
}

// Next returns the next block of at most max rows, and io.EOF (with an
// empty block) once the stream is exhausted. The caller owns every
// returned block.
func (s *SliceSource) Next(max int) (Block, error) {
	if max < 1 {
		return Block{}, fmt.Errorf("point: batch size must be positive, got %d", max)
	}
	if s.off >= len(s.pts) {
		return Block{Dims: s.dims}, io.EOF
	}
	hi := s.off + max
	if hi > len(s.pts) {
		hi = len(s.pts)
	}
	b := BlockOf(s.dims, s.pts[s.off:hi])
	s.off = hi
	return b, nil
}
