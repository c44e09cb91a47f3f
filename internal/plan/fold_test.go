package plan

import (
	"fmt"
	"math/rand"
	"testing"

	"zskyline/internal/dominance"
	"zskyline/internal/point"
	"zskyline/internal/zorder"
)

// TestFoldMatchesBruteForce adds random batches to a fold — fresh rows
// with ties, copies of kept skyline rows, copies inside the batch, rows
// a kept row dominates — under Pareto with either local kernel and
// under flex. After every add the skyline equals the brute-force skyline
// of everything added, the count equals the batch rows nothing added so
// far dominates, the rows are in Z-order, and the column is the rows'
// own addresses under Pareto and absent otherwise.
func TestFoldMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, dims := range []int{2, 5} {
		w := [][]float64{make([]float64, dims), make([]float64, dims)}
		for i := range w[0] {
			w[0][i], w[1][i] = 1, 1
		}
		w[1][0] = 3
		for _, tc := range []struct {
			label string
			local LocalAlgo
			desc  dominance.Descriptor
		}{{"zs", ZS, dominance.Descriptor{}}, {"sb", SB, dominance.Descriptor{}}, {"flex", ZS, dominance.Descriptor{Kind: dominance.KindFlex, Weights: w}}} {
			r := clusterRule(t, dims, 8, tc.local, tc.desc)
			prov := r.Provider()
			f := NewFold(r, nil)
			var all []point.Point
			for batch := 0; batch < 25; batch++ {
				label := fmt.Sprintf("d%d/%s/batch %d", dims, tc.label, batch)
				kept := f.Skyline().Points()
				var pts []point.Point
				for n := 1 + rng.Intn(40); len(pts) < n; {
					switch k := rng.Intn(5); {
					case k == 0 && len(kept) > 0:
						pts = append(pts, kept[rng.Intn(len(kept))].Clone())
					case k == 1 && len(kept) > 0:
						q := kept[rng.Intn(len(kept))].Clone()
						q[rng.Intn(dims)] += 0.1
						pts = append(pts, q)
					case k == 2 && len(pts) > 0:
						pts = append(pts, pts[rng.Intn(len(pts))].Clone())
					default:
						p := make(point.Point, dims)
						for i := range p {
							p[i] = float64(rng.Intn(8)) / 8
						}
						pts = append(pts, p)
					}
				}
				all = append(all, pts...)
				want := 0
			rows:
				for _, p := range pts {
					for _, q := range all {
						if prov.Dominates(q, p) {
							continue rows
						}
					}
					want++
				}
				if got := f.Add(NewGroup(0, dims, pts)); got != want {
					t.Fatalf("%s: Add counted %d of %d rows, brute force says %d", label, got, len(pts), want)
				}
				sky := f.Skyline()
				sameSet(t, sky.Points(), reference(prov, all), label)
				zc := r.Encoder().EncodeBlock(zorder.ZCol{}, sky.Block)
				for i := 1; i < zc.Len(); i++ {
					if zc.Compare(i-1, i) > 0 {
						t.Fatalf("%s: rows %d and %d out of Z-order", label, i-1, i)
					}
				}
				if r.pareto() && string(mustBinary(t, zc)) != string(mustBinary(t, sky.ZCol)) {
					t.Fatalf("%s: the skyline's column does not match its rows", label)
				}
				if !r.pareto() && sky.ZCol.Len() != 0 {
					t.Fatalf("%s: a column under a relation whose kernels take none", label)
				}
			}
		}
	}
	if got := NewFold(clusterRule(t, 3, 8, ZS, dominance.Descriptor{}), nil).Add(Group{}); got != 0 {
		t.Errorf("empty batch counted %d rows", got)
	}
}

// TestFoldFromSeed seeds a fold with another fold's skyline and adds the
// same batches to both: the seeded fold must give the same skyline and
// the same counts as the one that computed its seed.
func TestFoldFromSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	r := clusterRule(t, 4, 8, ZS, dominance.Descriptor{})
	batch := func() Group {
		pts := make([]point.Point, 1+rng.Intn(60))
		for i := range pts {
			pts[i] = make(point.Point, 4)
			for k := range pts[i] {
				pts[i][k] = float64(rng.Intn(10)) / 10
			}
		}
		return NewGroup(0, 4, pts)
	}
	computed := NewFold(r, nil)
	for i := 0; i < 5; i++ {
		computed.Add(batch())
	}
	seeded := NewFoldFrom(r, nil, computed.Skyline())
	for i := 0; i < 10; i++ {
		label := fmt.Sprintf("batch %d", i)
		b := batch()
		if got, want := seeded.Add(b), computed.Add(b); got != want {
			t.Fatalf("%s: seeded fold counted %d rows, computed one %d", label, got, want)
		}
		sameSet(t, seeded.Skyline().Points(), computed.Skyline().Points(), label)
	}
}
