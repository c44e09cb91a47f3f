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

// skylineRows projects ds onto dims and runs the one SB kernel with
// provenance over the projection, returning row indices ascending.
func skylineRows(ds *point.Dataset, dims []int, tally *metrics.Tally) []int {
	proj := point.Block{Dims: len(dims), Data: make([]float64, 0, ds.Len()*len(dims))}
	for _, p := range ds.Points {
		for _, d := range dims {
			proj.Data = append(proj.Data, p[d])
		}
	}
	rows := seq.SBRows(proj, tally)
	out := make([]int, len(rows))
	for i, r := range rows {
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
