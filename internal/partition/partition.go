// Package partition implements the data-partitioning schemes the paper
// evaluates: classic equal-width Grid partitioning [9][11], Angle
// partitioning over hyperspherical coordinates [8], Random
// partitioning [18], and the paper's own Z-order-curve partitioning of
// §4.1, which cuts the curve at equal-frequency pivots learned from a
// sample so that every partition receives ~|P|/M points regardless of
// dimensionality. Each partitioner is immutable after construction and
// safe for concurrent use, so every mapper shares one instance.
package partition

import (
	"fmt"
	"math"
	"sort"

	"zskyline/internal/point"
)

// factorize splits m into per-dimension split counts whose product is
// >= m and close to m: prime factors of m are dealt, largest first, to
// the dimension with the smallest running product. All dims start at 1.
func factorize(m, dims int) []int {
	splits := make([]int, dims)
	for i := range splits {
		splits[i] = 1
	}
	if m <= 1 || dims == 0 {
		return splits
	}
	var factors []int
	rest := m
	for f := 2; f*f <= rest; f++ {
		for rest%f == 0 {
			factors = append(factors, f)
			rest /= f
		}
	}
	if rest > 1 {
		factors = append(factors, rest)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(factors)))
	for _, f := range factors {
		best := 0
		for i := 1; i < dims; i++ {
			if splits[i] < splits[best] {
				best = i
			}
		}
		splits[best] *= f
	}
	return splits
}

// Grid is the classic equal-width grid partitioner: the value range of
// each used dimension is cut into equal-width stripes and each cell is
// one partition. With skewed or high-dimensional data the cells
// receive very unequal point counts — the imbalance the paper's §3.3
// calls out and that the experiments reproduce.
type Grid struct {
	mins, widths []float64
	splits       []int
	n            int
}

// NewGrid builds a grid partitioner with ~m cells over the bounding
// box of sample (following [7], values are normalized by the observed
// ranges). The sample must be non-empty.
func NewGrid(sample []point.Point, m int) (*Grid, error) {
	if len(sample) == 0 {
		return nil, fmt.Errorf("partition: grid needs a non-empty sample")
	}
	if m < 1 {
		return nil, fmt.Errorf("partition: need at least one partition, got %d", m)
	}
	d := len(sample[0])
	ds := point.Dataset{Dims: d, Points: sample}
	mins, maxs, err := ds.Bounds()
	if err != nil {
		return nil, err
	}
	g := &Grid{mins: mins, splits: factorize(m, d), widths: make([]float64, d), n: 1}
	for i := 0; i < d; i++ {
		span := maxs[i] - mins[i]
		if span <= 0 {
			g.splits[i] = 1
		}
		g.widths[i] = span / float64(g.splits[i])
		g.n *= g.splits[i]
	}
	return g, nil
}

// N returns the partition count.
func (g *Grid) N() int { return g.n }

// Assign returns p's partition: its cell, row-major.
func (g *Grid) Assign(p point.Point) int {
	id := 0
	for i, w := range g.widths {
		c := 0
		if w > 0 {
			c = int((p[i] - g.mins[i]) / w)
			if c < 0 {
				c = 0
			}
			if c >= g.splits[i] {
				c = g.splits[i] - 1
			}
		}
		id = id*g.splits[i] + c
	}
	return id
}

// Angle is the angle-based partitioner of [8]: points are mapped to
// hyperspherical coordinates and the (d-1)-dimensional angle space is
// cut at equal-frequency boundaries learned from the sample, so that
// each partition receives a similar share of the sample. Skyline
// points, which cluster near the origin, spread across all angular
// partitions.
type Angle struct {
	boundaries [][]float64 // per angle dim: sorted inner boundaries
	splits     []int
	n          int
	dims       int
}

// NewAngle learns an angle partitioner with ~m partitions from sample.
func NewAngle(sample []point.Point, m int) (*Angle, error) {
	if len(sample) == 0 {
		return nil, fmt.Errorf("partition: angle needs a non-empty sample")
	}
	if m < 1 {
		return nil, fmt.Errorf("partition: need at least one partition, got %d", m)
	}
	d := len(sample[0])
	angleDims := d - 1
	if angleDims == 0 {
		// 1-d data has no angles; a single partition is the only option.
		return &Angle{n: 1, dims: d}, nil
	}
	a := &Angle{splits: factorize(m, angleDims), dims: d, n: 1}
	for _, s := range a.splits {
		a.n *= s
	}
	// Equal-frequency boundaries per angle dimension, independently.
	angles := make([][]float64, angleDims)
	for k := range angles {
		angles[k] = make([]float64, 0, len(sample))
	}
	for _, p := range sample {
		ang := Hyperspherical(p)
		for k := 0; k < angleDims; k++ {
			angles[k] = append(angles[k], ang[k])
		}
	}
	a.boundaries = make([][]float64, angleDims)
	for k := 0; k < angleDims; k++ {
		sort.Float64s(angles[k])
		cuts := make([]float64, 0, a.splits[k]-1)
		for c := 1; c < a.splits[k]; c++ {
			idx := c * len(angles[k]) / a.splits[k]
			cuts = append(cuts, angles[k][idx])
		}
		a.boundaries[k] = cuts
	}
	return a, nil
}

// Hyperspherical maps a point to its d-1 hyperspherical angles:
// phi_i = atan2(|x_{i+1..d}|, x_i). For non-negative data every angle
// lies in [0, pi/2].
func Hyperspherical(p point.Point) []float64 {
	d := len(p)
	ang := make([]float64, d-1)
	// Suffix norms, computed back to front.
	norm := 0.0
	for i := d - 1; i >= 1; i-- {
		norm = math.Hypot(norm, p[i])
		ang[i-1] = math.Atan2(norm, p[i-1])
	}
	return ang
}

// N returns the partition count.
func (a *Angle) N() int { return a.n }

// Assign returns p's partition.
func (a *Angle) Assign(p point.Point) int {
	if a.n == 1 {
		return 0
	}
	ang := Hyperspherical(p)
	id := 0
	for k, cuts := range a.boundaries {
		c := sort.SearchFloat64s(cuts, ang[k])
		// SearchFloat64s returns the count of boundaries < ang (ties go
		// left, which keeps the cell layout contiguous).
		id = id*a.splits[k] + c
	}
	return id
}

// Random assigns points round-robin-by-hash: the baseline scheme [18]
// where every partition sees the full data distribution.
type Random struct {
	m int
}

// NewRandom builds a random (hash) partitioner over m partitions.
func NewRandom(m int) (*Random, error) {
	if m < 1 {
		return nil, fmt.Errorf("partition: need at least one partition, got %d", m)
	}
	return &Random{m: m}, nil
}

// N returns the partition count.
func (r *Random) N() int { return r.m }

// Assign returns p's partition: an FNV-style hash of the
// coordinates, so assignment is deterministic per point.
func (r *Random) Assign(p point.Point) int {
	h := uint64(1469598103934665603)
	for _, v := range p {
		b := math.Float64bits(v)
		for s := 0; s < 64; s += 8 {
			h ^= (b >> uint(s)) & 0xff
			h *= 1099511628211
		}
	}
	return int(h % uint64(r.m))
}
