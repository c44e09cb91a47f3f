package zorder

import "testing"

func TestRangeContains(t *testing.T) {
	full := Range{}
	for _, a := range []ZAddr{{0}, {42}, {^uint64(0)}} {
		if !full.Contains(a) {
			t.Fatalf("full curve misses %v", a)
		}
	}
	r := Range{Lo: ZAddr{10}, Hi: ZAddr{20}}
	cases := []struct {
		a    uint64
		want bool
	}{{9, false}, {10, true}, {19, true}, {20, false}}
	for _, c := range cases {
		if got := r.Contains(ZAddr{c.a}); got != c.want {
			t.Fatalf("Contains(%d) = %v", c.a, got)
		}
	}
	tail := Range{Lo: ZAddr{10}}
	if tail.Contains(ZAddr{9}) || !tail.Contains(ZAddr{^uint64(0)}) {
		t.Fatal("open-ended tail range wrong")
	}
	head := Range{Hi: ZAddr{10}}
	if !head.Contains(ZAddr{0}) || head.Contains(ZAddr{10}) {
		t.Fatal("open-ended head range wrong")
	}
}

func TestRangeOverlaps(t *testing.T) {
	a := Range{Lo: ZAddr{10}, Hi: ZAddr{20}}
	cases := []struct {
		o    Range
		want bool
	}{
		{Range{}, true}, // full curve
		{Range{Lo: ZAddr{20}, Hi: ZAddr{30}}, false}, // adjacent above
		{Range{Lo: ZAddr{0}, Hi: ZAddr{10}}, false},  // adjacent below
		{Range{Lo: ZAddr{19}, Hi: ZAddr{25}}, true},  // one shared address
		{Range{Lo: ZAddr{12}, Hi: ZAddr{15}}, true},  // nested
		{Range{Lo: ZAddr{15}, Hi: ZAddr{15}}, false}, // empty
		{Range{Lo: ZAddr{15}, Hi: ZAddr{12}}, false}, // inverted = empty
		{Range{Hi: ZAddr{11}}, true},                 // open head
		{Range{Lo: ZAddr{19}}, true},                 // open tail
	}
	for i, c := range cases {
		if got := a.Overlaps(c.o); got != c.want {
			t.Fatalf("case %d: Overlaps = %v, want %v", i, got, c.want)
		}
		if got := c.o.Overlaps(a); got != c.want {
			t.Fatalf("case %d: Overlaps not symmetric", i)
		}
	}
}

func TestRangeFilterRows(t *testing.T) {
	zc := ZCol{Words: 1, Data: []uint64{5, 10, 15, 20, 25}}
	got := Range{Lo: ZAddr{10}, Hi: ZAddr{21}}.FilterRows(nil, zc)
	want := []int32{1, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	if rows := (Range{}).FilterRows(nil, zc); len(rows) != 5 {
		t.Fatalf("full curve kept %d rows", len(rows))
	}
}

// A zero-length bound is an absent bound, exactly like nil: decoders
// hand back either for "no bound", and reading it as an address indexed
// past its end.
func TestRangeZeroLengthBoundIsAbsent(t *testing.T) {
	none := ZAddr{}
	zc := ZCol{Words: 1, Data: []uint64{5, 10, 15}}
	if r := (Range{Lo: none, Hi: none}); !r.Contains(ZAddr{7}) || !r.Overlaps(Range{Lo: ZAddr{1}, Hi: ZAddr{2}}) ||
		len(r.FilterRows(nil, zc)) != 3 {
		t.Fatal("zero-length bounds are not the full curve")
	}
	head := Range{Lo: none, Hi: ZAddr{10}}
	if !head.Contains(ZAddr{0}) || head.Contains(ZAddr{10}) || len(head.FilterRows(nil, zc)) != 1 {
		t.Fatal("zero-length Lo is not the origin")
	}
	tail := Range{Lo: ZAddr{10}, Hi: none}
	if tail.Contains(ZAddr{9}) || !tail.Contains(ZAddr{^uint64(0)}) || len(tail.FilterRows(nil, zc)) != 2 {
		t.Fatal("zero-length Hi is not past-the-end")
	}
	if head.Overlaps(tail) || tail.Overlaps(head) {
		t.Fatal("[origin,10) and [10,end) overlap")
	}
}
