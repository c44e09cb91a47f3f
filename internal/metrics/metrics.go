// Package metrics provides the lightweight counters the library
// threads through its algorithms so experiments can report dominance
// tests, pruned points, and load-balance statistics the way the
// paper's evaluation does.
package metrics

import (
	"fmt"
	"math"
	"sync/atomic"
)

// Tally accumulates counters that several goroutines may bump
// concurrently. The zero value is ready to use. A nil *Tally is valid
// everywhere and counts nothing, so hot paths can stay branch-cheap.
type Tally struct {
	dominanceTests atomic.Int64
	regionTests    atomic.Int64
	pointsPruned   atomic.Int64
}

// AddDominanceTests records n exact point-vs-point dominance tests.
func (t *Tally) AddDominanceTests(n int64) {
	if t != nil {
		t.dominanceTests.Add(n)
	}
}

// AddRegionTests records n grid-level RZ-region tests.
func (t *Tally) AddRegionTests(n int64) {
	if t != nil {
		t.regionTests.Add(n)
	}
}

// AddPointsPruned records n points eliminated before local processing.
func (t *Tally) AddPointsPruned(n int64) {
	if t != nil {
		t.pointsPruned.Add(n)
	}
}

// Snapshot is an immutable copy of a Tally's counters.
type Snapshot struct {
	DominanceTests int64
	RegionTests    int64
	PointsPruned   int64
	// BytesShuffled is always zero: nothing in the library shuffles
	// records any more. The field stays for readers that still print it.
	BytesShuffled int64
}

// Snapshot captures the current counter values.
func (t *Tally) Snapshot() Snapshot {
	if t == nil {
		return Snapshot{}
	}
	return Snapshot{
		DominanceTests: t.dominanceTests.Load(),
		RegionTests:    t.regionTests.Load(),
		PointsPruned:   t.pointsPruned.Load(),
	}
}

// Add merges another snapshot into s.
func (s Snapshot) Add(o Snapshot) Snapshot {
	return Snapshot{
		DominanceTests: s.DominanceTests + o.DominanceTests,
		RegionTests:    s.RegionTests + o.RegionTests,
		PointsPruned:   s.PointsPruned + o.PointsPruned,
	}
}

// Sub returns the counter deltas from o to s — the work done between
// two snapshots of the same tally.
func (s Snapshot) Sub(o Snapshot) Snapshot {
	return Snapshot{
		DominanceTests: s.DominanceTests - o.DominanceTests,
		RegionTests:    s.RegionTests - o.RegionTests,
		PointsPruned:   s.PointsPruned - o.PointsPruned,
	}
}

// Balance summarizes how evenly a quantity (points per worker, skyline
// candidates per group, ...) is spread — the data-skew and straggler
// metrics of the paper's §3.3.
type Balance struct {
	N      int
	Min    float64
	Max    float64
	Mean   float64
	StdDev float64
	// Imbalance is Max/Mean; 1.0 is a perfect spread. Straggler risk
	// grows with this ratio.
	Imbalance float64
}

// NewBalance computes balance statistics over per-worker loads.
func NewBalance(loads []int) Balance {
	if len(loads) == 0 {
		return Balance{}
	}
	b := Balance{N: len(loads), Min: math.Inf(1), Max: math.Inf(-1)}
	sum := 0.0
	for _, v := range loads {
		f := float64(v)
		sum += f
		if f < b.Min {
			b.Min = f
		}
		if f > b.Max {
			b.Max = f
		}
	}
	b.Mean = sum / float64(len(loads))
	var sq float64
	for _, v := range loads {
		d := float64(v) - b.Mean
		sq += d * d
	}
	b.StdDev = math.Sqrt(sq / float64(len(loads)))
	if b.Mean > 0 {
		b.Imbalance = b.Max / b.Mean
	}
	return b
}

// String renders the balance as "n=8 min=10 max=14 mean=12.0 imb=1.17".
func (b Balance) String() string {
	return fmt.Sprintf("n=%d min=%.0f max=%.0f mean=%.1f sd=%.1f imb=%.2f",
		b.N, b.Min, b.Max, b.Mean, b.StdDev, b.Imbalance)
}
