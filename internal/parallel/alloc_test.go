package parallel

import (
	"context"
	"runtime"
	"testing"

	"zskyline/internal/gen"
)

// skylineBytes returns the fewest bytes one Skyline call over ds with
// the given workers allocated (runtime.MemStats.TotalAlloc) in three
// calls after a warm-up call.
func skylineBytes(t *testing.T, workers int) uint64 {
	t.Helper()
	ds := gen.Synthetic(gen.AntiCorrelated, 16000, 8, 42)
	run := func() {
		if _, err := Skyline(context.Background(), ds, Options{Workers: workers}); err != nil {
			t.Fatal(err)
		}
	}
	run()
	best := ^uint64(0)
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		run()
		runtime.ReadMemStats(&after)
		best = min(best, after.TotalAlloc-before.TotalAlloc)
	}
	return best
}

// A Skyline call over anti-correlated n = 16,000, d = 8 rows copies each
// candidate once, from the group the map gathered into phase 3's store,
// and its map tasks allocate lists about the size of what they route.
// One call may allocate at most 10 % over the bytes measured when both
// held: 3.30 MB at one worker and 4.12 MB at two, on linux/amd64 with
// go1.24.
func TestSkylineAllocCeiling(t *testing.T) {
	for _, c := range []struct {
		workers  int
		measured uint64
	}{{1, 3303976}, {2, 4115912}} {
		got, ceiling := skylineBytes(t, c.workers), c.measured*11/10
		t.Logf("workers %d: %d B (ceiling %d B)", c.workers, got, ceiling)
		if got > ceiling {
			t.Errorf("workers %d: one Skyline call allocated %d B, over the %d B ceiling", c.workers, got, ceiling)
		}
	}
}
