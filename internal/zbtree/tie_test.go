package zbtree

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"zskyline/internal/dominance"
	"zskyline/internal/point"
	"zskyline/internal/seq"
)

// tieHeavyRows draws n rows whose coordinates sit at the centres of a
// 16-step unit grid, so at 4 bits or fewer per dimension many rows share
// a cell, then appends exact duplicates and, after their originals, rows
// one quarter step lower in one coordinate: in the same cell at any of
// those grids, so with the same Z-address, and dominating the original.
func tieHeavyRows(r *rand.Rand, n, d int) point.Block {
	pts := make([]point.Point, 0, 2*n)
	for i := 0; i < n; i++ {
		p := make(point.Point, d)
		for k := range p {
			p[k] = (float64(r.Intn(16)) + 0.5) / 16
		}
		pts = append(pts, p)
	}
	for i := 0; i < n/3; i++ {
		pts = append(pts, pts[r.Intn(n)].Clone())
		q := pts[r.Intn(n)].Clone()
		q[r.Intn(d)] -= 0.25 / 16
		pts = append(pts, q)
	}
	return point.BlockOf(d, pts)
}

// Z-search sweeps its running skyline only when a row ties the last
// accepted row's Z-address, under a relation that implies Pareto, and
// on every acceptance otherwise. On rows whose ties are the rule — coarse
// grids, duplicates, and equal-address rows that dominate rows accepted
// before them — both arms must stay exact: SkylineRows under Pareto and
// robust (gated) and under flex and k-dominance (every acceptance
// sweeps, k-dominance closed against the input), and SkylineProgressive
// under Pareto, checked against the brute-force oracles.
func TestZSearchTiesMatchBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(46))
	for _, bits := range []int{1, 2, 4} {
		for _, d := range []int{2, 3, 5} {
			for _, n := range []int{1, 12, 90, 300} {
				b := tieHeavyRows(r, n, d)
				enc := unitEnc(t, d, bits)
				for _, fanout := range []int{2, 4, 16} {
					label := fmt.Sprintf("bits=%d d=%d n=%d fanout=%d", bits, d, n, fanout)
					for _, prov := range underProviders(t, d) {
						st := NewStore(enc, b).Under(prov)
						got, _ := st.CompactRows(BuildStore(st, fanout, nil).SkylineRows())
						if !prov.Caps().Transitive {
							got = got.Select(seq.FilterRows(prov, got, b, nil))
						}
						samePointSet(t, label+" SkylineRows under "+prov.Name(), got.Points(), dominance.BruteForce(prov, b.Points()))
					}

					st := NewStore(enc, b)
					var rows []int32
					BuildStore(st, fanout, nil).SkylineProgressive(context.Background(), func(row int32) bool {
						rows = append(rows, row)
						return true
					})
					got, _ := st.CompactRows(rows)
					samePointSet(t, label+" SkylineProgressive", got.Points(), seq.BruteForce(b.Points()))
				}
			}
		}
	}
}
