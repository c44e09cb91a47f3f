package plan

import (
	"slices"
	"testing"

	"zskyline/internal/point"
	"zskyline/internal/zorder"
)

// TestGroupSelect pins Select: rows come out in the order asked, the
// column is cut alongside only when it covers every row, the Gid
// stays, and an empty selection keeps the block's Dims.
func TestGroupSelect(t *testing.T) {
	blk := point.BlockOf(2, []point.Point{{0, 1}, {2, 3}, {4, 5}, {6, 7}})
	col := zorder.ZCol{Words: 2, Data: []uint64{10, 11, 20, 21, 30, 31, 40, 41}}
	g := Group{Gid: 5, Block: blk, ZCol: col}

	got := g.Select([]int32{3, 0, 2})
	if want := []float64{6, 7, 0, 1, 4, 5}; got.Gid != 5 || got.Block.Dims != 2 || !slices.Equal(got.Block.Data, want) {
		t.Fatalf("selected %+v, want gid 5 and rows %v", got, want)
	}
	if want := []uint64{40, 41, 10, 11, 30, 31}; got.ZCol.Words != 2 || !slices.Equal(got.ZCol.Data, want) {
		t.Fatalf("column %+v, want the selected rows' addresses %v", got.ZCol, want)
	}
	got.Block.Data[0], got.ZCol.Data[0] = -1, 0
	if blk.Data[6] != 6 || col.Data[6] != 40 {
		t.Fatal("the selection shares storage with its source")
	}

	for name, c := range map[string]zorder.ZCol{"no column": {}, "short column": col.Slice(0, 3)} {
		if got := (Group{Block: blk, ZCol: c}).Select([]int32{1}); got.ZCol.Len() != 0 || got.Len() != 1 {
			t.Errorf("%s: selected %d rows with a %d-row column, want 1 row and none", name, got.Len(), got.ZCol.Len())
		}
	}

	if got := g.Select(nil); got.Len() != 0 || got.Block.Dims != 2 || got.ZCol.Len() != 0 {
		t.Fatalf("empty selection is %+v, want no rows of 2 dims", got)
	}
}

// TestConcat pins Concat: rows in group order, the column carried only
// when every group has a full one, a lone group passed through, and no
// rows giving the zero group.
func TestConcat(t *testing.T) {
	a := Group{Block: point.BlockOf(1, []point.Point{{1}, {2}}), ZCol: zorder.ZCol{Words: 1, Data: []uint64{1, 2}}}
	b := Group{Block: point.BlockOf(1, []point.Point{{3}}), ZCol: zorder.ZCol{Words: 1, Data: []uint64{3}}}
	got := Concat([]Group{a, b})
	if !slices.Equal(got.Block.Data, []float64{1, 2, 3}) || !slices.Equal(got.ZCol.Data, []uint64{1, 2, 3}) {
		t.Fatalf("concat is %+v", got)
	}
	if got := Concat([]Group{a, {Block: b.Block}}); got.Len() != 3 || got.ZCol.Len() != 0 {
		t.Fatalf("a group without a column left %d of %d addresses", got.ZCol.Len(), got.Len())
	}
	if got := Concat([]Group{a}); &got.Block.Data[0] != &a.Block.Data[0] {
		t.Fatal("a lone group was copied")
	}
	if got := Concat([]Group{{Block: point.Block{Dims: 1}}, {}}); got.Block.Dims != 0 || got.Len() != 0 {
		t.Fatalf("no rows concatenate to %+v, want the zero group", got)
	}
}
