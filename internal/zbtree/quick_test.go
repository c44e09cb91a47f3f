package zbtree

import (
	"math/rand"
	"testing"
	"testing/quick"

	"zskyline/internal/point"
	"zskyline/internal/seq"
	"zskyline/internal/zorder"
)

// quick-generated workloads: each property gets a seed and builds a
// deterministic random dataset from it, so failures reproduce.

func quickPoints(seed int64, maxN, maxD int) ([]point.Point, *zorder.Encoder) {
	r := rand.New(rand.NewSource(seed))
	d := 1 + r.Intn(maxD)
	n := r.Intn(maxN)
	pts := make([]point.Point, n)
	for i := range pts {
		p := make(point.Point, d)
		for k := range p {
			if r.Intn(2) == 0 {
				p[k] = float64(r.Intn(6)) / 6
			} else {
				p[k] = r.Float64()
			}
		}
		pts[i] = p
	}
	enc, _ := zorder.NewUnitEncoder(d, 2+r.Intn(12))
	return pts, enc
}

// Property: the tree is a faithful container — build and read back
// yields a permutation of the input.
func TestQuickBuildIsPermutation(t *testing.T) {
	f := func(seed int64) bool {
		pts, enc := quickPoints(seed, 300, 5)
		tr := buildPts(enc, 2+int(seed%13+13)%13, pts, nil)
		got := rowPoints(tr, tr.Rows())
		if len(got) != len(pts) {
			return false
		}
		w := append([]point.Point(nil), pts...)
		point.SortLexicographic(got)
		point.SortLexicographic(w)
		for i := range got {
			if !got[i].Equal(w[i]) {
				return false
			}
		}
		return tr.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: the skyline is invariant under input permutation.
func TestQuickSkylinePermutationInvariant(t *testing.T) {
	f := func(seed int64) bool {
		pts, enc := quickPoints(seed, 200, 4)
		a := ZSearch(enc, 8, pts, nil)
		shuffled := append([]point.Point(nil), pts...)
		r := rand.New(rand.NewSource(seed ^ 0x5a5a))
		r.Shuffle(len(shuffled), func(i, j int) {
			shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		})
		b := ZSearch(enc, 8, shuffled, nil)
		if len(a) != len(b) {
			return false
		}
		point.SortLexicographic(a)
		point.SortLexicographic(b)
		for i := range a {
			if !a[i].Equal(b[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Property: Z-merge is order-insensitive — merging A into B and B into A
// yield the same skyline set.
func TestQuickMergeCommutes(t *testing.T) {
	f := func(seed int64) bool {
		ptsA, enc := quickPoints(seed, 150, 4)
		r := rand.New(rand.NewSource(seed ^ 0x77))
		d := enc.Dims()
		ptsB := make([]point.Point, r.Intn(150))
		for i := range ptsB {
			p := make(point.Point, d)
			for k := range p {
				p[k] = r.Float64()
			}
			ptsB[i] = p
		}
		skyA := seq.BruteForce(ptsA)
		skyB := seq.BruteForce(ptsB)
		ab := mergeSkylines(enc, 8, nil, skyA, skyB)
		ba := mergeSkylines(enc, 8, nil, skyB, skyA)
		if len(ab) != len(ba) {
			return false
		}
		point.SortLexicographic(ab)
		point.SortLexicographic(ba)
		for i := range ab {
			if !ab[i].Equal(ba[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// Property: skyline is idempotent — skyline(skyline(P)) == skyline(P).
func TestQuickSkylineIdempotent(t *testing.T) {
	f := func(seed int64) bool {
		pts, enc := quickPoints(seed, 250, 5)
		once := ZSearch(enc, 8, pts, nil)
		twice := ZSearch(enc, 8, once, nil)
		return len(once) == len(twice)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
