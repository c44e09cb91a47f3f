package zbtree

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"zskyline/internal/dominance"
	"zskyline/internal/metrics"
	"zskyline/internal/point"
	"zskyline/internal/seq"
	"zskyline/internal/zorder"
)

// underProviders builds one provider of each kind for d-dimensional
// unit-cube data. Robust's margin exceeds the 1/8 spacing of randPts'
// coordinates, so a Pareto positive cut would drop rows it keeps.
func underProviders(t testing.TB, d int) []dominance.Provider {
	t.Helper()
	w1 := make([]float64, d)
	w2 := make([]float64, d)
	for i := range w1 {
		w1[i] = 1
		w2[i] = 1
	}
	w2[0] = 3
	flex, err := dominance.NewFlex([][]float64{w1, w2})
	if err != nil {
		t.Fatal(err)
	}
	k := d - 1
	if k < 1 {
		k = 1
	}
	kdom, err := dominance.NewKDom(k)
	if err != nil {
		t.Fatal(err)
	}
	robust, err := dominance.NewRobust(0.2)
	if err != nil {
		t.Fatal(err)
	}
	return []dominance.Provider{dominance.Pareto{}, flex, kdom, robust}
}

// skylineUnder is the Z-search walk over pts on a store that carries
// prov, closed against its input under a non-transitive relation as
// the pipeline's local skyline is: the exact skyline under prov.
func skylineUnder(prov dominance.Provider, d, bits int, pts []point.Point) []point.Point {
	enc, _ := zorder.NewUnitEncoder(d, bits)
	b := point.BlockOf(d, pts)
	out := b.Select(ZSearchRowsUnder(prov, enc, 4, b, zorder.ZCol{}, nil))
	if prov != nil && !prov.Caps().Transitive {
		out = out.Select(seq.FilterRows(prov, out, b, nil))
	}
	return out.Points()
}

// TestSkylineUnderMatchesOracle pins the capability-gated Z-search to
// the per-provider brute-force oracle, duplicates and rows one ulp
// apart included, at one-word lanes (d <= 4), padded and multi-word
// lanes (d = 5, 9, 12), and grids coarser than (3 bits) and shifted
// into (16, 20 bits) the 15-bit lanes.
func TestSkylineUnderMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	shapes := [][2]int{{2, 6}, {4, 6}}
	for _, d := range []int{5, 9, 12} {
		for _, bits := range []int{3, 16, 20} {
			shapes = append(shapes, [2]int{d, bits})
		}
	}
	for _, sh := range shapes {
		d, bits := sh[0], sh[1]
		for _, n := range []int{0, 1, 30, 400} {
			pts := randPts(r, n, d, 8)
			for i := 0; i < n/10; i++ {
				pts = append(pts, pts[r.Intn(n)].Clone())
				// A copy one ulp off in one coordinate: dominated by, or
				// dominating, its original.
				q := pts[r.Intn(n)].Clone()
				k := r.Intn(d)
				q[k] = math.Nextafter(q[k], math.Inf(2*r.Intn(2)-1))
				pts = append(pts, q)
			}
			for _, prov := range underProviders(t, d) {
				label := fmt.Sprintf("%s d=%d bits=%d n=%d", prov.Name(), d, bits, n)
				sameSet(t, skylineUnder(prov, d, bits, pts), dominance.BruteForce(prov, pts), label)
			}
		}
	}
}

// TestSkylineUnderParetoFastPath checks the classic relation, nil or
// named, leaves the store's relation at its zero value and agrees with
// the Pareto Z-search exactly.
func TestSkylineUnderParetoFastPath(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	enc := unitEnc(t, 3, 6)
	pts := randPts(r, 200, 3, 16)
	want := ZSearch(enc, 4, pts, nil)
	sameSet(t, skylineUnder(nil, 3, 6, pts), want, "nil provider")
	sameSet(t, skylineUnder(dominance.Pareto{}, 3, 6, pts), want, "Pareto{}")
	if st := NewStore(enc, point.BlockOf(3, pts)).Under(dominance.Pareto{}); st.prov != nil || st.noPos || st.noNeg {
		t.Fatalf("Pareto{} store relation = %v, %v, %v, want the zero value", st.prov, st.noPos, st.noNeg)
	}
}

// TestMergeUnderMatchesOracle merges two local provider skylines the
// way a ZS merge does — the capability-gated Z-search over their union
// — and compares against the oracle of the full dataset. Transitive
// providers must be exact directly; the non-transitive provider's merge
// output is a candidate superset that must become exact after the
// closing filter against the full dataset.
func TestMergeUnderMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	const d = 3
	pts := randPts(r, 300, d, 8)
	half := len(pts) / 2
	for _, prov := range underProviders(t, d) {
		left := skylineUnder(prov, d, 6, pts[:half])
		right := skylineUnder(prov, d, 6, pts[half:])
		merged := skylineUnder(prov, d, 6, append(left, right...))
		want := dominance.BruteForce(prov, pts)
		if prov.Caps().Transitive {
			sameSet(t, merged, want, prov.Name())
			continue
		}
		// Candidate superset: every true result point must survive the
		// pipeline, and verification closes it.
		cand := point.BlockOf(d, merged)
		closed := cand.Select(seq.FilterRows(prov, cand, point.BlockOf(d, pts), nil))
		sameSet(t, closed.Points(), want, prov.Name()+" after verify")
	}
}

// TestZSearchBlockUnderMatchesSlice pins the walk under every relation
// to the slice oracle on a coarse, tie-heavy grid, where the grid cuts
// decide most of the walk.
func TestZSearchBlockUnderMatchesSlice(t *testing.T) {
	r := rand.New(rand.NewSource(14))
	const d = 4
	pts := randPts(r, 250, d, 8)
	for _, prov := range underProviders(t, d) {
		sameSet(t, skylineUnder(prov, d, 3, pts), dominance.BruteForce(prov, pts), prov.Name())
	}
}

// TestStoreRelationGatesEachCut puts a row p against copies of a row q
// where Pareto and the relation disagree on whether p dominates q:
// robust's p wins by less than the margin in every dimension, so no
// positive cut may fire; flex's p is Pareto-incomparable to q, so no
// negative cut or lane reject may. Every walk must answer the store's
// relation, Pareto when the store carries none.
func TestStoreRelationGatesEachCut(t *testing.T) {
	robust, err := dominance.NewRobust(0.2)
	if err != nil {
		t.Fatal(err)
	}
	flex, err := dominance.NewFlex([][]float64{{1, 1}, {3, 1}})
	if err != nil {
		t.Fatal(err)
	}
	enc := unitEnc(t, 2, 16)
	for _, tc := range []struct {
		prov dominance.Provider
		p, q point.Point
	}{
		{robust, point.Point{0.1, 0.1}, point.Point{0.2, 0.2}},
		{flex, point.Point{0, 0.6}, point.Point{0.5, 0.2}},
	} {
		for _, prov := range []dominance.Provider{nil, tc.prov} {
			want := point.Dominates(tc.p, tc.q)
			label := "pareto/" + tc.prov.Name()
			if prov != nil {
				want, label = prov.Dominates(tc.p, tc.q), tc.prov.Name()
			}
			// Row 0 is p; rows 1..4 are q, enough for an internal node at
			// fanout 2.
			st := NewStore(enc, point.BlockOf(2, []point.Point{tc.p, tc.q, tc.q, tc.q, tc.q})).Under(prov)
			pTree, qTree := BuildRows(st, 2, []int32{0}, nil), BuildRows(st, 2, []int32{1, 2, 3, 4}, nil)
			qBox := qTree.region(qTree.root)
			if got := pTree.DominatesRow(new(metrics.Count), 1); got != want {
				t.Errorf("%s: DominatesRow = %v, want %v", label, got, want)
			}
			if got := pTree.DominatesPoint(new(metrics.Count), enc.Grid(tc.q), tc.q); got != want {
				t.Errorf("%s: DominatesPoint = %v, want %v", label, got, want)
			}
			if got := pTree.DominatesAllOfRegion(new(metrics.Count), qBox); got && !want {
				t.Errorf("%s: DominatesAllOfRegion fired on a box p does not dominate", label)
			}
			if got := pTree.incomparableWith(new(metrics.Count), qBox, 2); got && want {
				t.Errorf("%s: incomparableWith fired on a box p dominates", label)
			}
			sky, removed := 5, 0 // p and every q survive; p removes none
			if want {
				sky, removed = 1, 4
			}
			if got := len(BuildStore(st, 2, nil).SkylineRows()); got != sky {
				t.Errorf("%s: Z-search kept %d rows, want %d", label, got, sky)
			}
			if got := qTree.RemoveDominatedBy(new(metrics.Count), 0); got != removed {
				t.Errorf("%s: RemoveDominatedBy removed %d, want %d", label, got, removed)
			}
		}
	}
}
