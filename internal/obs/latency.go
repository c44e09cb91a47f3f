package obs

import (
	"math"
	"sync/atomic"
	"time"
)

// LatencyHistogram is a fixed-size, log-scale latency histogram built
// for serving hot paths: Observe is lock-free (one atomic add plus a
// max CAS), and Snapshot derives p50/p90/p99/max estimates from the
// bucket counts. Buckets span 1µs to 1000s with latPerDecade buckets
// per decade, so the quantile error is bounded by one bucket's width
// (~58% relative at 5 buckets/decade) — plenty for SLO tracking, and
// exact for max.
//
// Like the rest of obs, a nil *LatencyHistogram is valid everywhere
// and records nothing.
type LatencyHistogram struct {
	counts   [latBuckets]atomic.Int64
	sumNanos atomic.Int64
	maxNanos atomic.Int64
}

const (
	// latMinNanos is the upper bound of the underflow bucket: 1µs.
	latMinNanos = 1e3
	// latPerDecade buckets per factor-of-10 of latency.
	latPerDecade = 5
	// latDecades covers 1µs .. 1000s.
	latDecades = 9
	// latBuckets = underflow + log buckets + overflow.
	latBuckets = latDecades*latPerDecade + 2
)

// latBucketIndex maps a duration to its bucket.
func latBucketIndex(d time.Duration) int {
	ns := float64(d.Nanoseconds())
	if ns < latMinNanos {
		return 0
	}
	i := 1 + int(math.Log10(ns/latMinNanos)*latPerDecade)
	if i >= latBuckets {
		return latBuckets - 1
	}
	return i
}

// latUpperNanos is bucket i's upper bound in nanoseconds.
func latUpperNanos(i int) float64 {
	if i <= 0 {
		return latMinNanos
	}
	return latMinNanos * math.Pow(10, float64(i)/latPerDecade)
}

// NewLatencyHistogram builds an empty latency histogram.
func NewLatencyHistogram() *LatencyHistogram { return &LatencyHistogram{} }

// Observe records one latency. Nil-safe and safe for concurrent use.
func (h *LatencyHistogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	if d < 0 {
		d = 0
	}
	h.counts[latBucketIndex(d)].Add(1)
	ns := d.Nanoseconds()
	h.sumNanos.Add(ns)
	for {
		cur := h.maxNanos.Load()
		if ns <= cur || h.maxNanos.CompareAndSwap(cur, ns) {
			return
		}
	}
}

// LatencySnapshot is a point-in-time quantile summary.
type LatencySnapshot struct {
	Count int64
	Mean  time.Duration
	P50   time.Duration
	P90   time.Duration
	P99   time.Duration
	Max   time.Duration
}

// Snapshot summarizes the histogram. Concurrent Observe calls may land
// between bucket reads; the summary is a consistent-enough monitoring
// view, not a barrier.
func (h *LatencyHistogram) Snapshot() LatencySnapshot {
	if h == nil {
		return LatencySnapshot{}
	}
	var counts [latBuckets]int64
	var total int64
	for i := range counts {
		counts[i] = h.counts[i].Load()
		total += counts[i]
	}
	snap := LatencySnapshot{Count: total, Max: time.Duration(h.maxNanos.Load())}
	if total == 0 {
		return snap
	}
	snap.Mean = time.Duration(h.sumNanos.Load() / total)
	quantile := func(q float64) time.Duration {
		target := int64(math.Ceil(q * float64(total)))
		if target < 1 {
			target = 1
		}
		var cum int64
		for i, c := range counts {
			cum += c
			if cum >= target {
				// The overflow bucket has no upper bound — the recorded
				// max is the only honest estimate there.
				if i == latBuckets-1 {
					return snap.Max
				}
				// Elsewhere the bucket upper bound over-estimates;
				// clamping to the recorded max makes single-sample and
				// all-one-bucket tails exact.
				est := time.Duration(latUpperNanos(i))
				if est > snap.Max {
					est = snap.Max
				}
				return est
			}
		}
		return snap.Max
	}
	snap.P50 = quantile(0.50)
	snap.P90 = quantile(0.90)
	snap.P99 = quantile(0.99)
	return snap
}

// sumSeconds backs the Prometheus summary exposition's _sum series.
func (h *LatencyHistogram) sumSeconds() float64 {
	if h == nil {
		return 0
	}
	return float64(h.sumNanos.Load()) / 1e9
}
