package main

import (
	"fmt"
	"math"

	"zskyline/internal/point"
	"zskyline/internal/seq"
)

// digest identifies a multiset of points: its size and the wrapping
// sum of one 64-bit hash per row, so order does not matter and a
// duplicated or dropped row changes it.
type digest struct {
	n   int
	sum uint64
}

func hashRow(p []float64) uint64 {
	h := uint64(14695981039346656037) // FNV-1a over the coordinate bits
	for _, v := range p {
		b := math.Float64bits(v)
		for i := 0; i < 8; i++ {
			h ^= b & 0xff
			h *= 1099511628211
			b >>= 8
		}
	}
	return h
}

func digestOf(pts []point.Point) digest {
	d := digest{n: len(pts)}
	for _, p := range pts {
		d.sum += hashRow(p)
	}
	return d
}

func digestOfBlock(b point.Block) digest {
	d := digest{n: b.Len()}
	for i := 0; i < d.n; i++ {
		d.sum += hashRow(b.Row(i))
	}
	return d
}

// prefixCheck is how many leading rows the brute-force cross-check of
// the reference covers.
const prefixCheck = 2000

// reference computes the skyline every repetition must reproduce, with
// the sequential sort-based kernel, after checking that kernel against
// the quadratic brute force on a prefix of the same data.
func reference(b point.Block) (digest, error) {
	pre := b.Slice(0, min(prefixCheck, b.Len()))
	if got, want := digestOfBlock(seq.SBBlock(pre, nil)), digestOf(seq.BruteForce(pre.Points())); got != want {
		return digest{}, fmt.Errorf("oracle: SBBlock %v disagrees with BruteForce %v on the %d-row prefix", got, want, pre.Len())
	}
	return digestOfBlock(seq.SBBlock(b, nil)), nil
}
