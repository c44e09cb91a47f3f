package zskyline

import (
	"context"
	"fmt"

	"zskyline/internal/metrics"
	"zskyline/internal/point"
	"zskyline/internal/zbtree"
	"zskyline/internal/zorder"
)

// Index is a queryable ZB-tree over a dataset: the index form of the
// paper's §3.2 machinery, exposed for repeated interactive queries —
// skyline, progressive skyline, constrained (range) skyline, dominator
// explanations, and dominance counting. Build once, query many times.
// An Index holds its own copy of the data, every answer is a fresh
// copy, and it is immutable after construction and safe for concurrent
// reads.
type Index struct {
	tree  *zbtree.BlockTree
	enc   *zorder.Encoder
	tally *metrics.Tally
}

// BuildIndex indexes ds. bits <= 0 selects a resolution appropriate
// for the dimensionality.
func BuildIndex(ds *Dataset, bits int) (*Index, error) {
	if ds == nil || ds.Len() == 0 {
		return nil, fmt.Errorf("zskyline: cannot index an empty dataset")
	}
	if bits <= 0 {
		switch {
		case ds.Dims <= 16:
			bits = 16
		case ds.Dims <= 64:
			bits = 12
		default:
			bits = 8
		}
	}
	mins, maxs, err := ds.Bounds()
	if err != nil {
		return nil, err
	}
	enc, err := zorder.NewEncoder(ds.Dims, bits, mins, maxs)
	if err != nil {
		return nil, err
	}
	tally := &metrics.Tally{}
	st := zbtree.NewStore(enc, point.BlockOf(ds.Dims, ds.Points))
	return &Index{tree: zbtree.BuildStore(st, 0, tally), enc: enc, tally: tally}, nil
}

// points copies the given rows out of the index's store.
func (ix *Index) points(rows []int32) []Point {
	b, _ := ix.tree.Store().CompactRows(rows)
	return b.Points()
}

// Len returns the number of indexed points.
func (ix *Index) Len() int { return ix.tree.Len() }

// Skyline computes the exact skyline of the indexed points (Z-search).
func (ix *Index) Skyline() []Point { return ix.points(ix.tree.SkylineRows()) }

// SkylineProgressive streams skyline points as they are found; every
// emitted point is final. The channel closes on completion or when ctx
// is cancelled.
func (ix *Index) SkylineProgressive(ctx context.Context) <-chan Point {
	out := make(chan Point)
	go func() {
		defer close(out)
		ix.tree.SkylineProgressive(ctx, func(row int32) bool {
			select {
			case out <- ix.tree.Store().Row(row).Clone():
				return true
			case <-ctx.Done():
				return false
			}
		})
	}()
	return out
}

// SkylineWithin computes the constrained skyline over the box
// [lo, hi]: points dominated only by out-of-box points re-enter.
func (ix *Index) SkylineWithin(lo, hi Point) ([]Point, error) {
	if len(lo) != ix.enc.Dims() || len(hi) != ix.enc.Dims() {
		return nil, fmt.Errorf("zskyline: box corners must have %d dims", ix.enc.Dims())
	}
	for k := range lo {
		if lo[k] > hi[k] {
			return nil, fmt.Errorf("zskyline: box corner %d inverted: %v > %v", k, lo[k], hi[k])
		}
	}
	in := zbtree.BuildRows(ix.tree.Store(), 0, ix.tree.RangeRows(lo, hi), ix.tally)
	return ix.points(in.SkylineRows()), nil
}

// Range returns every indexed point inside the box [lo, hi].
func (ix *Index) Range(lo, hi Point) ([]Point, error) {
	if len(lo) != ix.enc.Dims() || len(hi) != ix.enc.Dims() {
		return nil, fmt.Errorf("zskyline: box corners must have %d dims", ix.enc.Dims())
	}
	return ix.points(ix.tree.RangeRows(lo, hi)), nil
}

// Dominators answers the "why not" question: the indexed points that
// strictly dominate p. Empty means p would be a skyline point.
func (ix *Index) Dominators(p Point) ([]Point, error) {
	if len(p) != ix.enc.Dims() {
		return nil, fmt.Errorf("zskyline: point has %d dims, want %d", len(p), ix.enc.Dims())
	}
	return ix.points(ix.tree.DominatorsOf(ix.enc.Grid(p), p)), nil
}

// DominatedCount returns how many indexed points p strictly dominates
// — the influence score used by TopKByDominance.
func (ix *Index) DominatedCount(p Point) (int, error) {
	if len(p) != ix.enc.Dims() {
		return 0, fmt.Errorf("zskyline: point has %d dims, want %d", len(p), ix.enc.Dims())
	}
	return ix.tree.CountDominatedBy(ix.enc.Grid(p), p), nil
}

// Stats exposes the work counters accumulated by queries so far.
func (ix *Index) Stats() metrics.Snapshot { return ix.tally.Snapshot() }
