package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestLatencyHistogramEmpty(t *testing.T) {
	h := NewLatencyHistogram()
	snap := h.Snapshot()
	if snap.Count != 0 || snap.P50 != 0 || snap.P90 != 0 || snap.P99 != 0 || snap.Max != 0 {
		t.Fatalf("empty snapshot = %+v", snap)
	}
	var nilH *LatencyHistogram
	nilH.Observe(time.Second) // must not panic
	if nilH.Snapshot().Count != 0 {
		t.Fatal("nil histogram recorded something")
	}
}

func TestLatencyHistogramSingleSample(t *testing.T) {
	h := NewLatencyHistogram()
	h.Observe(3 * time.Millisecond)
	snap := h.Snapshot()
	if snap.Count != 1 {
		t.Fatalf("count = %d", snap.Count)
	}
	// Clamping the bucket upper bound to the recorded max makes every
	// quantile of a single sample exact.
	for _, q := range []time.Duration{snap.P50, snap.P90, snap.P99, snap.Max} {
		if q != 3*time.Millisecond {
			t.Fatalf("single-sample quantiles = %+v, want all 3ms", snap)
		}
	}
	if snap.Mean != 3*time.Millisecond {
		t.Fatalf("mean = %v", snap.Mean)
	}
}

func TestLatencyHistogramAllOneBucket(t *testing.T) {
	h := NewLatencyHistogram()
	// 1.00ms..1.02ms all land in one log bucket.
	for i := 0; i < 100; i++ {
		h.Observe(time.Millisecond + time.Duration(i)*200*time.Nanosecond)
	}
	snap := h.Snapshot()
	max := time.Millisecond + 99*200*time.Nanosecond
	if snap.Max != max {
		t.Fatalf("max = %v, want %v", snap.Max, max)
	}
	// Every quantile resolves to the single occupied bucket, clamped
	// to max.
	if snap.P50 != max || snap.P99 != max {
		t.Fatalf("one-bucket quantiles = %+v", snap)
	}
}

func TestLatencyHistogramQuantileOrdering(t *testing.T) {
	h := NewLatencyHistogram()
	for i := 1; i <= 1000; i++ {
		h.Observe(time.Duration(i) * 100 * time.Microsecond) // 0.1ms .. 100ms
	}
	snap := h.Snapshot()
	if snap.Count != 1000 {
		t.Fatalf("count = %d", snap.Count)
	}
	if !(snap.P50 <= snap.P90 && snap.P90 <= snap.P99 && snap.P99 <= snap.Max) {
		t.Fatalf("quantiles out of order: %+v", snap)
	}
	// The true p50 is 50ms; the log buckets bound the estimate within
	// one bucket ratio (10^(1/5) ≈ 1.585) above, never below p50's
	// bucket lower bound.
	if snap.P50 < 40*time.Millisecond || snap.P50 > 80*time.Millisecond {
		t.Fatalf("p50 = %v, want ~50ms within a bucket", snap.P50)
	}
	if snap.Max != 100*time.Millisecond {
		t.Fatalf("max = %v", snap.Max)
	}
}

func TestLatencyHistogramExtremes(t *testing.T) {
	h := NewLatencyHistogram()
	h.Observe(-time.Second) // clamped to 0 → underflow bucket
	h.Observe(0)
	h.Observe(5 * time.Hour) // beyond the last decade → overflow bucket
	snap := h.Snapshot()
	if snap.Count != 3 {
		t.Fatalf("count = %d", snap.Count)
	}
	if snap.Max != 5*time.Hour {
		t.Fatalf("max = %v", snap.Max)
	}
	if snap.P99 != 5*time.Hour {
		t.Fatalf("p99 = %v, want clamp to max", snap.P99)
	}
}

// TestLatencyHistogramConcurrent hammers Observe from many goroutines
// while snapshots and Prometheus exports run — the -race coverage the
// serving path needs.
func TestLatencyHistogramConcurrent(t *testing.T) {
	r := NewRegistry()
	h := r.Latency("zsky_query_seconds", L("route", "/query"))
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				h.Observe(time.Duration(g*1000+i) * time.Microsecond)
			}
		}(g)
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				snap := h.Snapshot()
				if snap.Count < 0 {
					t.Error("negative count")
				}
				var b strings.Builder
				if err := r.WritePrometheus(&b); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()
	snap := h.Snapshot()
	if snap.Count != 16000 {
		t.Fatalf("count = %d, want 16000", snap.Count)
	}
	if snap.P50 <= 0 || snap.Max < snap.P99 {
		t.Fatalf("snapshot = %+v", snap)
	}
}

func TestLatencySummaryExposition(t *testing.T) {
	r := NewRegistry()
	r.Latency("zsky_query_seconds", L("route", "/q")).Observe(10 * time.Millisecond)
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE zsky_query_seconds summary",
		`zsky_query_seconds{route="/q",quantile="0.5"} 0.01`,
		`zsky_query_seconds{route="/q",quantile="0.99"} 0.01`,
		`zsky_query_seconds_sum{route="/q"} 0.01`,
		`zsky_query_seconds_count{route="/q"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestLatencyReportLine(t *testing.T) {
	r := NewRegistry()
	r.Latency("lat").Observe(2 * time.Millisecond)
	rep := Report(nil, r)
	if !strings.Contains(rep, "count=1") || !strings.Contains(rep, "p50=2ms") {
		t.Fatalf("report missing latency line:\n%s", rep)
	}
}
