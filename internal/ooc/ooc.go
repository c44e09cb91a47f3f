// Package ooc computes skylines out of core: datasets stored in the
// ZSKY binary format are streamed in bounded batches through the
// incremental maintainer, so memory use tracks the skyline size plus
// one batch rather than the dataset size. This is how the library
// handles files larger than RAM — the same regime the paper's
// disk-backed Hadoop deployment targets.
package ooc

import (
	"fmt"

	"zskyline/internal/codec"
	"zskyline/internal/maintain"
	"zskyline/internal/point"
)

// Options tunes a streaming run.
type Options struct {
	// BatchSize bounds points in memory per step; 0 selects 65536.
	BatchSize int
	// Bits is the maintainer's grid resolution; 0 selects 16.
	Bits int
	// Mins/Maxs optionally give the data's bounding box. When nil, a
	// first streaming pass computes it (two-pass mode).
	Mins, Maxs []float64
}

// SkylineFile computes the skyline of a ZSKY file. Without explicit
// bounds it makes two passes: one to find the bounding box (needed for
// a well-fitted Z-order grid), one to maintain the skyline.
func SkylineFile(path string, opts Options) (sky []point.Point, err error) {
	opts = opts.normalize()
	if opts.Mins == nil || opts.Maxs == nil {
		var mins, maxs []float64
		err = codec.ReadFile(path, func(br *codec.BinaryReader) error {
			return br.Blocks(opts.batch, func(b point.Block) error {
				mins, maxs = b.UpdateBounds(mins, maxs)
				return nil
			})
		})
		if err != nil {
			return nil, err
		}
		if mins == nil {
			return nil, fmt.Errorf("ooc: empty file")
		}
		opts.Mins, opts.Maxs = mins, maxs
	}
	err = codec.ReadFile(path, func(br *codec.BinaryReader) error {
		if len(opts.Mins) != br.Dims() || len(opts.Maxs) != br.Dims() {
			return fmt.Errorf("ooc: bounds have %d dims, stream has %d", len(opts.Mins), br.Dims())
		}
		m, err := maintain.New(br.Dims(), opts.Bits, opts.Mins, opts.Maxs)
		if err != nil {
			return err
		}
		err = br.Blocks(opts.batch, func(b point.Block) error {
			_, err := m.InsertBlock(b)
			return err
		})
		if err == nil {
			sky = m.Skyline()
		}
		return err
	})
	return sky, err
}

func (o Options) normalize() Options {
	if o.BatchSize < 1 {
		o.BatchSize = 65536
	}
	if o.Bits < 1 {
		o.Bits = 16
	}
	return o
}

// batch is the rows a pass reads as block i: BatchSize, whatever i.
func (o Options) batch(int) int { return o.BatchSize }
