package partition

import (
	"testing"

	"zskyline/internal/gen"
	"zskyline/internal/zorder"
)

func TestRangeTableValidation(t *testing.T) {
	if _, err := NewRangeTable(0, nil); err == nil {
		t.Fatal("accepted words=0")
	}
	if _, err := NewRangeTable(1, []zorder.ZAddr{{1, 2}}); err == nil {
		t.Fatal("accepted wrong-width cut")
	}
	if _, err := NewRangeTable(1, []zorder.ZAddr{{5}, {5}}); err == nil {
		t.Fatal("accepted equal cuts")
	}
	if _, err := NewRangeTable(1, []zorder.ZAddr{{9}, {3}}); err == nil {
		t.Fatal("accepted decreasing cuts")
	}
	tab, err := NewRangeTable(2, []zorder.ZAddr{{1, 0}, {1, 7}, {4, 0}})
	if err != nil {
		t.Fatal(err)
	}
	if tab.N() != 4 {
		t.Fatalf("N=%d", tab.N())
	}
}

// Every address must land in exactly one range, and Locate must agree
// with the Range(i).Contains predicate — the "exactly one owner per
// Z-range" invariant the sharded tier builds on.
func TestRangeTableExactlyOneOwner(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 8} {
		cuts := UniformCuts(1, n)
		tab, err := NewRangeTable(1, cuts)
		if err != nil {
			t.Fatal(err)
		}
		if tab.N() != n {
			t.Fatalf("n=%d: N()=%d", n, tab.N())
		}
		enc, err := zorder.NewUnitEncoder(4, 8)
		if err != nil {
			t.Fatal(err)
		}
		if enc.Words() != 1 {
			t.Fatalf("unexpected words %d", enc.Words())
		}
		ds := gen.Synthetic(gen.AntiCorrelated, 500, 4, 42)
		for _, p := range ds.Points {
			a := enc.Encode(p)
			got := tab.Locate(a)
			owners := 0
			for i := 0; i < tab.N(); i++ {
				if tab.Range(i).Contains(a) {
					owners++
					if i != got {
						t.Fatalf("n=%d: Locate=%d but range %d contains %v", n, got, i, a)
					}
				}
			}
			if owners != 1 {
				t.Fatalf("n=%d: address %v has %d owners", n, a, owners)
			}
		}
	}
}

func TestRangeTableBoundaryOwnership(t *testing.T) {
	cuts := []zorder.ZAddr{{100}, {200}}
	tab, err := NewRangeTable(1, cuts)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		a    uint64
		want int
	}{
		{0, 0}, {99, 0}, {100, 1}, {199, 1}, {200, 2}, {^uint64(0), 2},
	}
	for _, c := range cases {
		if got := tab.Locate(zorder.ZAddr{c.a}); got != c.want {
			t.Fatalf("Locate(%d) = %d, want %d", c.a, got, c.want)
		}
	}
}

func TestRangeTableOverlapping(t *testing.T) {
	tab, err := NewRangeTable(1, []zorder.ZAddr{{100}, {200}, {300}})
	if err != nil {
		t.Fatal(err)
	}
	full := tab.Overlapping(zorder.Range{})
	if len(full) != 4 {
		t.Fatalf("full-curve query overlaps %v", full)
	}
	mid := tab.Overlapping(zorder.Range{Lo: zorder.ZAddr{150}, Hi: zorder.ZAddr{250}})
	if len(mid) != 2 || mid[0] != 1 || mid[1] != 2 {
		t.Fatalf("mid query overlaps %v", mid)
	}
	one := tab.Overlapping(zorder.Range{Lo: zorder.ZAddr{100}, Hi: zorder.ZAddr{101}})
	if len(one) != 1 || one[0] != 1 {
		t.Fatalf("point query overlaps %v", one)
	}
	empty := tab.Overlapping(zorder.Range{Lo: zorder.ZAddr{100}, Hi: zorder.ZAddr{100}})
	if len(empty) != 0 {
		t.Fatalf("empty query overlaps %v", empty)
	}
}

func TestUniformCutsIncreasing(t *testing.T) {
	for _, n := range []int{2, 3, 7, 16} {
		cuts := UniformCuts(2, n)
		if len(cuts) != n-1 {
			t.Fatalf("n=%d: %d cuts", n, len(cuts))
		}
		for i := 1; i < len(cuts); i++ {
			if zorder.Compare(cuts[i-1], cuts[i]) >= 0 {
				t.Fatalf("n=%d: cuts not increasing at %d", n, i)
			}
		}
		if _, err := NewRangeTable(2, cuts); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
	if UniformCuts(1, 1) != nil {
		t.Fatal("n=1 should yield no cuts")
	}
}
