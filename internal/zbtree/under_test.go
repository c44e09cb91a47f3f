package zbtree

import (
	"math/rand"
	"testing"

	"zskyline/internal/dominance"
	"zskyline/internal/point"
	"zskyline/internal/zorder"
)

// underProviders builds one provider of each kind for d-dimensional
// unit-cube data.
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
	robust, err := dominance.NewRobust(0.1)
	if err != nil {
		t.Fatal(err)
	}
	return []dominance.Provider{dominance.Pareto{}, flex, kdom, robust}
}

// skylineUnder is ZSearchBlockUnder over points.
func skylineUnder(prov dominance.Provider, d, bits int, pts []point.Point) []point.Point {
	enc, _ := zorder.NewUnitEncoder(d, bits)
	return ZSearchBlockUnder(prov, enc, 4, point.BlockOf(d, pts), nil).Points()
}

// TestSkylineUnderMatchesOracle pins the capability-gated Z-search to
// the per-provider brute-force oracle, duplicates included.
func TestSkylineUnderMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for _, d := range []int{2, 4} {
		for _, n := range []int{0, 1, 30, 400} {
			pts := randPts(r, n, d, 8)
			for i := 0; i < n/10; i++ {
				pts = append(pts, pts[r.Intn(n)].Clone())
			}
			for _, prov := range underProviders(t, d) {
				sameSet(t, skylineUnder(prov, d, 6, pts), dominance.BruteForce(prov, pts), prov.Name())
			}
		}
	}
}

// TestSkylineUnderParetoFastPath checks the classic relation routes to
// the hardcoded Z-search and agrees with it exactly.
func TestSkylineUnderParetoFastPath(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	enc := unitEnc(t, 3, 6)
	pts := randPts(r, 200, 3, 16)
	want := ZSearch(enc, 4, pts, nil)
	sameSet(t, skylineUnder(nil, 3, 6, pts), want, "nil provider")
	sameSet(t, skylineUnder(dominance.Pareto{}, 3, 6, pts), want, "Pareto{}")
}

// TestMergeUnderMatchesOracle merges two local provider skylines the
// way the provider fallback of phase 3 does — the capability-gated
// Z-search over their union — and compares against the oracle of the
// full dataset. Transitive providers must be exact directly; the
// non-transitive provider's merge output is a candidate superset that
// must become exact after the closing verification against the full
// dataset.
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
		closed := dominance.VerifyBlock(prov, point.BlockOf(d, merged), point.BlockOf(d, pts), nil)
		sameSet(t, closed.Points(), want, prov.Name()+" after verify")
	}
}

// TestZSearchBlockUnderMatchesSlice pins the block kernel to the slice
// oracle on a coarse, tie-heavy grid, where the grid cuts decide most
// of the walk.
func TestZSearchBlockUnderMatchesSlice(t *testing.T) {
	r := rand.New(rand.NewSource(14))
	const d = 4
	pts := randPts(r, 250, d, 8)
	for _, prov := range underProviders(t, d) {
		sameSet(t, skylineUnder(prov, d, 3, pts), dominance.BruteForce(prov, pts), prov.Name())
	}
}
