package zbtree

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"zskyline/internal/point"
	"zskyline/internal/zorder"
)

// checkBoxes walks every live node of tr and checks its box against the
// grids of the rows below it: the box must hold them all, equal their
// exact box when exact is set (a fresh build), and its lane min corner
// must be the lanes of its min corner, at or below every row's lanes.
func checkBoxes(t *testing.T, label string, tr *BlockTree, exact bool) {
	t.Helper()
	if err := tr.Validate(); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if tr.root < 0 {
		return
	}
	st, d := tr.st, tr.st.enc.Dims()
	var walk func(n int32)
	walk = func(n int32) {
		r, rows := tr.region(n), tr.appendRows(n, nil)
		lo, hi := slices.Clone(st.Grid(rows[0])), slices.Clone(st.Grid(rows[0]))
		for _, e := range rows {
			for k, v := range st.Grid(e) {
				lo[k], hi[k] = min(lo[k], v), max(hi[k], v)
			}
			if lanesSomeGreater(tr.boxLanes(n), st.rowLanes(e)) {
				t.Fatalf("%s: node %d lane corner %x above row %d lanes %x", label, n, tr.boxLanes(n), e, st.rowLanes(e))
			}
		}
		for k := 0; k < d; k++ {
			if r.MinG[k] > lo[k] || r.MaxG[k] < hi[k] {
				t.Fatalf("%s: node %d box [%v,%v] misses rows' box [%v,%v]", label, n, r.MinG, r.MaxG, lo, hi)
			}
		}
		if exact && (!slices.Equal(r.MinG, lo) || !slices.Equal(r.MaxG, hi)) {
			t.Fatalf("%s: node %d box [%v,%v], rows' box [%v,%v]", label, n, r.MinG, r.MaxG, lo, hi)
		}
		want := make([]uint64, laneWords(d))
		packLanes(want, r.MinG, laneShift(st.enc.Bits()))
		if !slices.Equal(tr.boxLanes(n), want) {
			t.Fatalf("%s: node %d lane corner %x, packed min corner %x", label, n, tr.boxLanes(n), want)
		}
		for _, kid := range tr.nodes[n].kids {
			walk(kid)
		}
	}
	walk(tr.root)
}

func allRows(n int) []int32 {
	rows := make([]int32, n)
	for i := range rows {
		rows[i] = int32(i)
	}
	return rows
}

// A node's box is the grid box of its rows on every path that builds
// a tree — bulk load, rightmost appends and Z-merge's final rebuild —
// and stays a superset of what is left after removals.
func TestBlockTreeBoxesCoverRows(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, d := range []int{1, 3, 8, 12} {
		enc := unitEnc(t, d, 16)
		for _, fanout := range []int{2, 4, 16} {
			for _, kind := range []string{"independent", "anti"} {
				label := func(how string) string { return kind + "/" + how }
				st := NewStore(enc, genBlock(rng, kind, 300, d))
				bulk := BuildStore(st, fanout, nil)
				checkBoxes(t, label("BuildRows"), bulk, true)

				app := NewBlockTree(st, fanout, nil)
				for _, e := range bulk.Rows() {
					app.Append(e)
				}
				checkBoxes(t, label("Append"), app, true)

				half := int32(st.Len() / 2)
				var lo, hi []int32
				for _, e := range allRows(st.Len()) {
					if e < half {
						lo = append(lo, e)
					} else {
						hi = append(hi, e)
					}
				}
				merged := MergeBlock(BuildRows(st, fanout, BuildRows(st, fanout, lo, nil).SkylineRows(), nil),
					BuildRows(st, fanout, BuildRows(st, fanout, hi, nil).SkylineRows(), nil))
				checkBoxes(t, label("MergeBlock"), merged, true)

				for i := 0; i < 20; i++ {
					row := int32(rng.Intn(st.Len()))
					bulk.RemoveDominatedBy(row)
					app.RemoveDominatedBy(row)
				}
				checkBoxes(t, label("BuildRows+RemoveDominatedBy"), bulk, false)
				checkBoxes(t, label("Append+RemoveDominatedBy"), app, false)
			}
		}
	}
}

// The packed lane test rejects exactly when some coarsened coordinate
// of q exceeds p's — so never for a q whose grid is at or below p's,
// never on the zero lanes that pad the last word, and never for a float
// dominator.
func TestLanesRejectOnlyNonDominators(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for _, bits := range []int{1, 8, 15, 16, 17, 32} {
		shift := laneShift(bits)
		maxG := uint64(1)<<uint(bits) - 1
		for _, d := range []int{1, 2, 3, 4, 5, 7, 8, 12, 13} {
			enc := unitEnc(t, d, bits)
			pg, qg := make([]uint32, d), make([]uint32, d)
			pl, ql := make([]uint64, laneWords(d)), make([]uint64, laneWords(d))
			for trial := 0; trial < 400; trial++ {
				for k := range pg {
					// Extremes, ties and near-ties stress the lane borrow.
					switch rng.Intn(4) {
					case 0:
						pg[k], qg[k] = uint32(maxG), uint32(rng.Int63n(int64(maxG)+1))
					case 1:
						pg[k] = uint32(rng.Int63n(int64(maxG) + 1))
						qg[k] = pg[k]
					default:
						pg[k], qg[k] = uint32(rng.Int63n(int64(maxG)+1)), uint32(rng.Int63n(int64(maxG)+1))
					}
				}
				packLanes(pl, pg, shift)
				packLanes(ql, qg, shift)
				want := false
				for k := range pg {
					want = want || qg[k]>>shift > pg[k]>>shift
				}
				if got := lanesSomeGreater(ql, pl); got != want {
					t.Fatalf("bits=%d d=%d q=%v p=%v: lanes reject %v, coarsened grids say %v", bits, d, qg, pg, got, want)
				}
				if !zorder.GridSomeGreater(qg, pg) && lanesSomeGreater(ql, pl) {
					t.Fatalf("bits=%d d=%d: lanes reject grid dominator %v of %v", bits, d, qg, pg)
				}
				if d%4 != 0 && pl[len(pl)-1]>>(16*uint(d%4)) != 0 {
					t.Fatalf("bits=%d d=%d: padding lanes of %x are not zero", bits, d, pl)
				}
			}
			// Float dominators quantize to lanes the test never rejects.
			for trial := 0; trial < 200; trial++ {
				p, q := make(point.Point, d), make(point.Point, d)
				for k := range p {
					p[k] = fuzzCoords[rng.Intn(len(fuzzCoords))]
					q[k] = p[k]
					if rng.Intn(2) == 0 {
						q[k] = math.Nextafter(p[k], math.Inf(-1))
					}
				}
				packLanes(pl, enc.Grid(p), shift)
				packLanes(ql, enc.Grid(q), shift)
				if point.Dominates(q, p) && lanesSomeGreater(ql, pl) {
					t.Fatalf("bits=%d d=%d: lanes reject float dominator %v of %v", bits, d, q, p)
				}
			}
		}
	}
}

// fuzzCoords is a tie-heavy coordinate set: grid-cell edges, values a
// ulp apart, signed zeros and both infinities.
var fuzzCoords = []float64{
	math.Inf(-1), -1, math.Copysign(0, -1), 0, 1e-300, 0.25,
	math.Nextafter(0.5, 0), 0.5, math.Nextafter(0.5, 1), 0.75, 1, 2, math.Inf(1),
}

var fuzzBits = []int{4, 15, 16, 17, 32}

// The Pareto probes against brute force on tie-heavy rows, over trees
// built both ways, at every lane width and padding.
func FuzzBlockTreeProbe(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 2, 3, 4})
	f.Add([]byte{7, 2, 14, 5, 6, 7, 8, 5, 6, 7, 9, 0, 12, 12, 12, 7})
	f.Add([]byte{16, 4, 3, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 0, 1, 2, 3, 4})
	f.Add([]byte{2, 1, 0, 6, 7, 8, 6, 7, 8, 7, 7, 7, 8, 6, 7, 0, 12, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		d, bits, fanout := 1+int(data[0])%17, fuzzBits[int(data[1])%len(fuzzBits)], 2+int(data[2])%15
		data = data[3:]
		n := min(len(data)/d, 64)
		if n == 0 {
			return
		}
		b := point.Block{Dims: d, Data: make([]float64, n*d)}
		for i := range b.Data {
			b.Data[i] = fuzzCoords[int(data[i])%len(fuzzCoords)]
		}
		enc := unitEnc(t, d, bits)
		st := NewStore(enc, b)
		bulk := BuildStore(st, fanout, nil)
		app := NewBlockTree(st, fanout, nil)
		for _, e := range bulk.Rows() {
			app.Append(e)
		}
		for _, tr := range []*BlockTree{bulk, app} {
			checkProbes(t, tr, allRows(n))
			live := allRows(n)
			for _, row := range allRows(n) {
				var want []int32
				for _, e := range live {
					if !point.Dominates(st.Row(row), st.Row(e)) {
						want = append(want, e)
					}
				}
				if got := tr.RemoveDominatedBy(row); got != len(live)-len(want) {
					t.Fatalf("d=%d bits=%d fanout=%d: RemoveDominatedBy(%d) removed %d, want %d", d, bits, fanout, row, got, len(live)-len(want))
				}
				live = want
				checkProbes(t, tr, live)
			}
		}
	})
}

// checkProbes holds tr to brute force over its live rows: the rows it
// stores, DominatesRow of every store row, and DominatesPoint of every
// store row nudged a ulp down in one coordinate.
func checkProbes(t *testing.T, tr *BlockTree, live []int32) {
	t.Helper()
	st := tr.st
	got := tr.Rows()
	slices.Sort(got)
	if !slices.Equal(got, live) {
		t.Fatalf("tree rows %v, want %v", got, live)
	}
	dominated := func(p point.Point) bool {
		for _, e := range live {
			if point.Dominates(st.Row(e), p) {
				return true
			}
		}
		return false
	}
	for r := int32(0); r < int32(st.Len()); r++ {
		p := st.Row(r)
		if got, want := tr.DominatesRow(r), dominated(p); got != want {
			t.Fatalf("DominatesRow(%v) = %v, want %v", p, got, want)
		}
		q := slices.Clone(p)
		q[int(r)%len(q)] = math.Nextafter(q[int(r)%len(q)], math.Inf(-1))
		if got, want := tr.DominatesPoint(st.enc.Grid(q), q), dominated(q); got != want {
			t.Fatalf("DominatesPoint(%v) = %v, want %v", q, got, want)
		}
	}
}
