// Package subspace computes subspace skylines and the skycube: the
// skyline of a dataset restricted to a subset of its dimensions, and
// the collection of skylines over every non-empty dimension subset.
// Subspace results are reported as row indices because projections
// collapse points: rows distinct in full space may coincide in a
// subspace, and all non-dominated copies belong to the answer.
package subspace

import (
	"fmt"
	"math/bits"
	"sort"
	"sync"

	"zskyline/internal/metrics"
	"zskyline/internal/point"
	"zskyline/internal/seq"
)

// MaxCubeDims bounds SkyCube's dimensionality (2^d - 1 subspaces).
const MaxCubeDims = 16

// Skyline returns the indices of rows whose projection onto dims is
// not dominated by any other row's projection, ascending. dims must be
// non-empty, unique and within range.
func Skyline(ds *point.Dataset, dims []int, tally *metrics.Tally) ([]int, error) {
	if ds == nil || ds.Len() == 0 {
		return nil, nil
	}
	if len(dims) == 0 {
		return nil, fmt.Errorf("subspace: no dimensions selected")
	}
	seen := map[int]bool{}
	for _, d := range dims {
		if d < 0 || d >= ds.Dims {
			return nil, fmt.Errorf("subspace: dimension %d out of range [0,%d)", d, ds.Dims)
		}
		if seen[d] {
			return nil, fmt.Errorf("subspace: dimension %d selected twice", d)
		}
		seen[d] = true
	}
	return skylineRows(ds, dims, tally), nil
}

// skylineRows is Rows over ds's points, every column taken as it is.
func skylineRows(ds *point.Dataset, dims []int, tally *metrics.Tally) []int {
	cols := make([]Column, len(dims))
	for k, d := range dims {
		cols[k] = Column{Dim: d}
	}
	return Rows(ds.Len(), func(i int) point.Point { return ds.Points[i] }, cols, tally)
}

// Column is one coordinate of a preference projection: source
// dimension Dim, negated when larger values are preferred, so that
// smaller is better in the projection.
type Column struct {
	Dim    int
	Negate bool
}

// Project copies the projection onto cols of n rows, row(i) being
// source row i, into one block.
func Project(n int, row func(int) point.Point, cols []Column) point.Block {
	proj := point.Block{Dims: len(cols), Data: make([]float64, 0, n*len(cols))}
	for i := 0; i < n; i++ {
		src := row(i)
		for _, c := range cols {
			v := src[c.Dim]
			if c.Negate {
				v = -v
			}
			proj.Data = append(proj.Data, v)
		}
	}
	return proj
}

// Rows returns, ascending, every one of n rows whose projection onto
// cols no row's projection dominates, duplicates included: one Project
// copy, then the sort-filter kernel with row positions. It answers nil
// for no rows.
func Rows(n int, row func(int) point.Point, cols []Column, tally *metrics.Tally) []int {
	sky := seq.SBRows(nil, Project(n, row, cols), tally)
	if len(sky) == 0 {
		return nil
	}
	out := make([]int, len(sky))
	for i, r := range sky {
		out[i] = int(r)
	}
	sort.Ints(out)
	return out
}

// Cube holds one skyline per non-empty dimension subset; keys are
// bitmasks over the dataset's dimensions (bit d set = dimension d
// participates).
type Cube struct {
	Dims     int
	Skylines map[uint32][]int
}

// SkyCube computes every subspace skyline of ds concurrently. It
// refuses dimensionalities above MaxCubeDims, because 2^d - 1 subspace
// computations stop being a sane request.
func SkyCube(ds *point.Dataset, workers int, tally *metrics.Tally) (*Cube, error) {
	if ds == nil || ds.Len() == 0 {
		return &Cube{Skylines: map[uint32][]int{}}, nil
	}
	if ds.Dims > MaxCubeDims {
		return nil, fmt.Errorf("subspace: skycube over %d dims (max %d)", ds.Dims, MaxCubeDims)
	}
	if workers < 1 {
		workers = 4
	}
	total := uint32(1)<<uint(ds.Dims) - 1
	cube := &Cube{Dims: ds.Dims, Skylines: make(map[uint32][]int, total)}
	var mu sync.Mutex
	var wg sync.WaitGroup
	sem := make(chan struct{}, workers)
	for mask := uint32(1); mask <= total; mask++ {
		mask := mask
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			dims := maskDims(mask)
			ids := skylineRows(ds, dims, tally)
			mu.Lock()
			cube.Skylines[mask] = ids
			mu.Unlock()
		}()
	}
	wg.Wait()
	return cube, nil
}

// maskDims expands a bitmask into dimension indices.
func maskDims(mask uint32) []int {
	dims := make([]int, 0, bits.OnesCount32(mask))
	for d := 0; mask != 0; d++ {
		if mask&1 != 0 {
			dims = append(dims, d)
		}
		mask >>= 1
	}
	return dims
}

// Of looks up the skyline of the subspace spanned by dims.
func (c *Cube) Of(dims []int) ([]int, bool) {
	var mask uint32
	for _, d := range dims {
		if d < 0 || d >= c.Dims {
			return nil, false
		}
		mask |= 1 << uint(d)
	}
	ids, ok := c.Skylines[mask]
	return ids, ok
}
