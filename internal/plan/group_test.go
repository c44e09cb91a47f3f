package plan

import (
	"slices"
	"testing"

	"zskyline/internal/point"
	"zskyline/internal/zorder"
)

// gatherCase is one call of Gather and what it must give back.
type gatherCase struct {
	name   string
	parts  []Part
	enc    *zorder.Encoder
	gid    int
	dims   int
	data   []float64
	col    []uint64 // nil: no column
	ranges [][2]int32
	alias  *float64 // the pass-through's first coordinate
}

// checkGather runs each case and checks its rows, column and ranges.
// Unless the case names a pass-through, the copy must be allocated at
// its exact size and share no storage with any part.
func checkGather(t *testing.T, cases []gatherCase) {
	t.Helper()
	for _, tc := range cases {
		var before [][]float64
		for _, p := range tc.parts {
			before = append(before, slices.Clone(p.Group.Block.Data))
		}
		got, ranges := Gather(tc.parts, tc.enc)
		if got.Gid != tc.gid || got.Block.Dims != tc.dims || !slices.Equal(got.Block.Data, tc.data) || got.Len() != len(tc.data)/max(tc.dims, 1) {
			t.Errorf("%s: gathered gid %d, %d dims, rows %v; want gid %d, %d dims, rows %v",
				tc.name, got.Gid, got.Block.Dims, got.Block.Data, tc.gid, tc.dims, tc.data)
		}
		if tc.col == nil && got.ZCol.Len() != 0 || tc.col != nil && (got.ZCol.Len() != got.Len() || !slices.Equal(got.ZCol.Data, tc.col)) {
			t.Errorf("%s: column %+v, want %v", tc.name, got.ZCol, tc.col)
		}
		if !slices.Equal(ranges, tc.ranges) {
			t.Errorf("%s: ranges %v, want %v", tc.name, ranges, tc.ranges)
		}
		if got.Len() == 0 {
			continue
		}
		if tc.alias != nil {
			if &got.Block.Data[0] != tc.alias {
				t.Errorf("%s: a lone whole part was copied", tc.name)
			}
			continue
		}
		if cap(got.Block.Data) != len(got.Block.Data) || cap(got.ZCol.Data) != len(got.ZCol.Data) {
			t.Errorf("%s: %d rows in room for more", tc.name, got.Len())
		}
		for i := range got.Block.Data {
			got.Block.Data[i] = -1
		}
		for i, p := range tc.parts {
			if !slices.Equal(p.Group.Block.Data, before[i]) {
				t.Errorf("%s: the gather shares storage with part %d", tc.name, i)
			}
		}
	}
}

// concatGroups are one-dimensional groups: a and b carry one-word
// columns, wide a two-word one.
func concatGroups() (a, b, wide Group) {
	a = Group{Block: point.BlockOf(1, []point.Point{{1}, {2}}), ZCol: zorder.ZCol{Words: 1, Data: []uint64{1, 2}}}
	b = Group{Block: point.BlockOf(1, []point.Point{{3}}), ZCol: zorder.ZCol{Words: 1, Data: []uint64{3}}}
	wide = Group{Block: point.BlockOf(1, []point.Point{{4}}), ZCol: zorder.ZCol{Words: 2, Data: []uint64{4, 4}}}
	return a, b, wide
}

// TestGroupSelect pins Gather of one group's positions: rows come out
// in the order asked, the column is cut alongside only when it covers
// every row, the Gid stays, and an empty selection keeps the block's
// Dims. The selection never shares storage with its source.
func TestGroupSelect(t *testing.T) {
	blk := point.BlockOf(2, []point.Point{{0, 1}, {2, 3}, {4, 5}, {6, 7}})
	col := zorder.ZCol{Words: 2, Data: []uint64{10, 11, 20, 21, 30, 31, 40, 41}}
	g := Group{Gid: 5, Block: blk, ZCol: col}
	checkGather(t, []gatherCase{
		{name: "one part, positions", parts: []Part{{Group: g, Rows: []int32{3, 0, 2}}},
			gid: 5, dims: 2, data: []float64{6, 7, 0, 1, 4, 5}, col: []uint64{40, 41, 10, 11, 30, 31}, ranges: [][2]int32{{0, 3}}},
		{name: "no column", parts: []Part{{Group: Group{Block: blk}, Rows: []int32{1}}},
			dims: 2, data: []float64{2, 3}, ranges: [][2]int32{{0, 1}}},
		{name: "partial column", parts: []Part{{Group: Group{Block: blk, ZCol: col.Slice(0, 3)}, Rows: []int32{1}}},
			dims: 2, data: []float64{2, 3}, ranges: [][2]int32{{0, 1}}},
		{name: "empty selection keeps dims", parts: []Part{Pick(g, nil)},
			gid: 5, dims: 2, data: []float64{}, col: []uint64{}, ranges: [][2]int32{{0, 0}}},
	})
}

// TestConcat pins Gather of whole groups: rows in group order, the
// column carried only when every group has a full one of one width, a
// lone group passed through, and no rows giving the zero group.
func TestConcat(t *testing.T) {
	a, b, wide := concatGroups()
	checkGather(t, []gatherCase{
		{name: "many parts, whole", parts: Whole([]Group{a, b}),
			dims: 1, data: []float64{1, 2, 3}, col: []uint64{1, 2, 3}, ranges: [][2]int32{{0, 2}, {2, 3}}},
		{name: "many parts, one without a column", parts: Whole([]Group{a, {Block: b.Block}}),
			dims: 1, data: []float64{1, 2, 3}, ranges: [][2]int32{{0, 2}, {2, 3}}},
		{name: "many parts, mixed width", parts: Whole([]Group{a, wide}),
			dims: 1, data: []float64{1, 2, 4}, ranges: [][2]int32{{0, 2}, {2, 3}}},
		{name: "lone whole part passes through", parts: Whole([]Group{a}),
			dims: 1, data: []float64{1, 2}, col: []uint64{1, 2}, ranges: [][2]int32{{0, 2}}, alias: &a.Block.Data[0]},
		{name: "no rows from several groups", parts: Whole([]Group{{Block: point.Block{Dims: 1}}, {}}),
			ranges: [][2]int32{{0, 0}, {0, 0}}},
	})
}

// TestGather pins what neither a selection nor a concatenation covers:
// parts mixing positions, whole groups and empty lists, no parts at
// all, and an encoder, under which every row gets its address, copied
// where the group carries the encoder's column and encoded otherwise,
// and a lone whole part passes through only with its column.
func TestGather(t *testing.T) {
	a, b, wide := concatGroups()
	enc, err := zorder.NewEncoder(2, 4, []float64{0, 0}, []float64{8, 8})
	if err != nil {
		t.Fatal(err)
	}
	encode := func(rows ...point.Point) []uint64 { return enc.EncodeBlock(zorder.ZCol{}, point.BlockOf(2, rows)).Data }
	own := Group{Gid: 2, Block: point.BlockOf(2, []point.Point{{1, 2}, {7, 0}, {3, 3}})}
	own.ZCol = zorder.ZCol{Words: enc.Words(), Data: encode(own.Points()...)}
	bare := Group{Gid: 3, Block: point.BlockOf(2, []point.Point{{5, 6}, {0, 8}})}
	short := Group{Gid: 4, Block: bare.Block, ZCol: own.ZCol.Slice(0, 1)}

	checkGather(t, []gatherCase{
		{name: "many parts, positions and an empty list", parts: []Part{{Group: a, Rows: []int32{1}}, Pick(b, nil), {Group: wide}, {Group: a, Rows: []int32{0, 1}}},
			dims: 1, data: []float64{2, 4, 1, 2}, ranges: [][2]int32{{0, 1}, {1, 1}, {1, 2}, {2, 4}}},
		{name: "no parts", ranges: [][2]int32{}},
		{name: "encoder fill", enc: enc, parts: []Part{{Group: own, Rows: []int32{2, 0}}, {Group: bare}, {Group: short, Rows: []int32{1}}},
			dims: 2, data: []float64{3, 3, 1, 2, 5, 6, 0, 8, 0, 8}, col: encode(point.Point{3, 3}, point.Point{1, 2}, point.Point{5, 6}, point.Point{0, 8}, point.Point{0, 8}),
			ranges: [][2]int32{{0, 2}, {2, 4}, {4, 5}}},
		{name: "encoder, lone part with its column passes through", enc: enc, parts: []Part{{Group: own}},
			gid: 2, dims: 2, data: own.Block.Data, col: own.ZCol.Data, ranges: [][2]int32{{0, 3}}, alias: &own.Block.Data[0]},
		{name: "encoder, lone part without its column is copied", enc: enc, parts: []Part{{Group: bare}},
			gid: 3, dims: 2, data: bare.Block.Data, col: encode(bare.Points()...), ranges: [][2]int32{{0, 2}}},
		{name: "encoder, no rows keep its shape", enc: enc, parts: []Part{{Group: Group{Block: point.Block{Dims: 2}}}, Pick(own, nil)},
			dims: 2, data: []float64{}, col: []uint64{}, ranges: [][2]int32{{0, 0}, {0, 0}}},
	})
}
