package partition

import (
	"fmt"
	"sort"

	"zskyline/internal/zorder"
)

// RangeTable maps the whole Z-order curve onto n contiguous,
// non-overlapping ranges, cut at n-1 strictly increasing pivot
// addresses. It is the range-ownership primitive of the sharded
// distributed tier: because the ranges are derived from one sorted cut
// list, every address has exactly one owner by construction — there is
// no overlap or gap to mis-handle during a rebalance.
//
// A RangeTable is immutable after construction and safe for concurrent
// use.
type RangeTable struct {
	cuts []zorder.ZAddr
}

// NewRangeTable builds a table over the given inner cut addresses,
// which must be strictly increasing and all of words words. n cuts
// define n+1 ranges; no cuts define the single full-curve range.
func NewRangeTable(words int, cuts []zorder.ZAddr) (*RangeTable, error) {
	if words < 1 {
		return nil, fmt.Errorf("partition: range table needs words >= 1, got %d", words)
	}
	for i, c := range cuts {
		if len(c) != words {
			return nil, fmt.Errorf("partition: cut %d has %d words, want %d", i, len(c), words)
		}
		if i > 0 && zorder.Compare(cuts[i-1], c) >= 0 {
			return nil, fmt.Errorf("partition: cuts not strictly increasing at %d", i)
		}
	}
	t := &RangeTable{}
	for _, c := range cuts {
		t.cuts = append(t.cuts, c.Clone())
	}
	return t, nil
}

// UniformCuts returns n-1 cut addresses splitting the curve's leading
// 64 address bits into n equal prefixes — the data-oblivious default
// shard layout (rebalancing by handoff is how a skewed dataset gets a
// better one). Words is the address width in uint64 words.
func UniformCuts(words, n int) []zorder.ZAddr {
	if n < 2 {
		return nil
	}
	cuts := make([]zorder.ZAddr, 0, n-1)
	for i := 1; i < n; i++ {
		a := make(zorder.ZAddr, words)
		// i * 2^64 / n without overflow: split the multiplication.
		q, r := (^uint64(0))/uint64(n), (^uint64(0))%uint64(n)+1
		a[0] = q*uint64(i) + r*uint64(i)/uint64(n)
		cuts = append(cuts, a)
	}
	return cuts
}

// N returns the number of ranges.
func (t *RangeTable) N() int { return len(t.cuts) + 1 }

// Locate returns the index of the unique range containing a.
func (t *RangeTable) Locate(a zorder.ZAddr) int {
	return sort.Search(len(t.cuts), func(i int) bool {
		return zorder.Compare(a, t.cuts[i]) < 0
	})
}

// Range returns range i as a zorder.Range (nil ends at the curve's
// extremes).
func (t *RangeTable) Range(i int) zorder.Range {
	var r zorder.Range
	if i > 0 {
		r.Lo = t.cuts[i-1]
	}
	if i < len(t.cuts) {
		r.Hi = t.cuts[i]
	}
	return r
}

// Overlapping returns the indices of every range overlapping q, in
// order — the fan-out set of a range-scoped query.
func (t *RangeTable) Overlapping(q zorder.Range) []int {
	var out []int
	for i := 0; i < t.N(); i++ {
		if t.Range(i).Overlaps(q) {
			out = append(out, i)
		}
	}
	return out
}
