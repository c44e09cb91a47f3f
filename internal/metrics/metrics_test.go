package metrics

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestNilTallyIsSafe(t *testing.T) {
	var tal *Tally
	tal.AddDominanceTests(5)
	tal.AddRegionTests(5)
	tal.AddPointsPruned(5)
	if s := tal.Snapshot(); s != (Snapshot{}) {
		t.Errorf("nil tally snapshot = %+v, want zero", s)
	}
}

func TestTallyConcurrent(t *testing.T) {
	tal := &Tally{}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				tal.AddDominanceTests(1)
				tal.AddPointsPruned(2)
			}
		}()
	}
	wg.Wait()
	s := tal.Snapshot()
	if s.DominanceTests != 8000 || s.PointsPruned != 16000 {
		t.Errorf("snapshot = %+v", s)
	}
}

func TestSnapshotAdd(t *testing.T) {
	a := Snapshot{DominanceTests: 1, RegionTests: 2, PointsPruned: 3}
	b := a.Add(a)
	if b.DominanceTests != 2 || b.PointsPruned != 6 || b.Sub(a) != a {
		t.Errorf("Add = %+v", b)
	}
}

func TestBalance(t *testing.T) {
	b := NewBalance([]int{10, 14, 12, 12})
	if b.N != 4 || b.Min != 10 || b.Max != 14 || b.Mean != 12 {
		t.Errorf("balance = %+v", b)
	}
	if math.Abs(b.Imbalance-14.0/12.0) > 1e-12 {
		t.Errorf("imbalance = %v", b.Imbalance)
	}
	if got := NewBalance(nil); got.N != 0 {
		t.Errorf("empty balance = %+v", got)
	}
	if !strings.Contains(b.String(), "imb=") {
		t.Errorf("String = %q", b.String())
	}
}

func TestBalanceUniform(t *testing.T) {
	b := NewBalance([]int{5, 5, 5})
	if b.StdDev != 0 || b.Imbalance != 1 {
		t.Errorf("uniform balance = %+v", b)
	}
}
