package grouping

import (
	"math/rand"
	"testing"
	"testing/quick"

	"zskyline/internal/gen"
	"zskyline/internal/partition"
	"zskyline/internal/zbtree"
	"zskyline/internal/zorder"
)

// quick property: for arbitrary sampled workloads and group counts,
// both grouping algorithms assign every partition exactly once (or
// prune it), produce group ids within range, and finish with at most m
// groups after consolidation.
func TestQuickGroupingInvariants(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := 2 + r.Intn(4)
		n := 300 + r.Intn(1500)
		m := 2 + r.Intn(12)
		parts := m * (1 + r.Intn(5))
		dist := gen.Distribution(r.Intn(3))
		ds := gen.Synthetic(dist, n, d, seed)
		enc, err := zorder.NewUnitEncoder(d, 4+r.Intn(10))
		if err != nil {
			return false
		}
		zc, err := partition.NewZCurve(enc, partition.EncodeSample(enc, ds.Points, zbtree.ZSearch(enc, 0, ds.Points, nil)), parts)
		if err != nil {
			return false
		}
		infos := zc.Infos()

		check := func(pg *PGMap) bool {
			if pg.Groups < 1 || pg.Groups > m {
				return false
			}
			if len(pg.Assign)+len(pg.Pruned) != len(infos) {
				return false
			}
			for _, g := range pg.Assign {
				if g < 0 || g >= pg.Groups {
					return false
				}
			}
			for _, pid := range pg.Pruned {
				if _, dup := pg.Assign[pid]; dup {
					return false
				}
			}
			// Every group id in [0, Groups) must be used (no holes
			// after relabeling).
			used := make([]bool, pg.Groups)
			for _, g := range pg.Assign {
				used[g] = true
			}
			for _, u := range used {
				if !u {
					return false
				}
			}
			return true
		}

		h, err := Heuristic(infos, m)
		if err != nil || !check(h) {
			return false
		}
		dg, err := Dominance(enc, infos, m)
		if err != nil || !check(dg) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}
