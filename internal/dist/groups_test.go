package dist

import (
	"context"
	"fmt"
	"slices"
	"testing"
	"time"

	"zskyline/internal/dominance"
	"zskyline/internal/gen"
	"zskyline/internal/obs"
)

// TestDefaultGroupsPerWorker: a zero M resolves to one group per
// worker, and answers stay exact; acquire runs one reduce per worker at
// a time, so more groups than workers only queue.
func TestDefaultGroupsPerWorker(t *testing.T) {
	ctx := context.Background()
	ds := gen.Synthetic(gen.AntiCorrelated, 3000, 4, 23)
	want := dominance.BruteForce(dominance.Pareto{}, ds.Points)

	for n := 1; n <= 3; n++ {
		coord, err := NewCoordinator(DefaultCoordinatorConfig(), startCluster(t, n))
		if err != nil {
			t.Fatal(err)
		}
		got, rep, err := coord.Skyline(ctx, ds)
		coord.Close()
		if err != nil {
			t.Fatalf("%d workers: %v", n, err)
		}
		if coord.cfg.M != n || rep.Groups > n {
			t.Fatalf("%d workers: M = %d, %d groups", n, coord.cfg.M, rep.Groups)
		}
		sameSet(t, got, want, fmt.Sprintf("%d workers", n))
	}

	t.Run("in-flight", func(t *testing.T) {
		// Every reduce stalls its worker's request loop, so calls would
		// pile up on each connection if admission let them.
		var addrs []string
		for i := 0; i < 3; i++ {
			ws, err := StartWorkerWithOptions("127.0.0.1:0", WorkerOptions{Faults: NewFaultPlan(
				FaultRule{Method: "Worker.ReduceGroup", Nth: 1, Count: 1 << 20, Action: FaultDelay, Delay: 30 * time.Millisecond})})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { ws.Close() })
			addrs = append(addrs, ws.Addr())
		}
		cfg := DefaultCoordinatorConfig()
		cfg.M = 4 * len(addrs)
		cfg.Events = obs.NewEventLog(1 << 10)
		coord, err := NewCoordinator(cfg, addrs)
		if err != nil {
			t.Fatal(err)
		}
		defer coord.Close()
		got, rep, err := coord.Skyline(ctx, ds)
		if err != nil {
			t.Fatal(err)
		}
		sameSet(t, got, want, "stalled reduces")
		if rep.Groups <= len(addrs) {
			t.Fatalf("%d groups do not outnumber %d workers", rep.Groups, len(addrs))
		}
		peaks := reducePeaks(coord.Events().Snapshot())
		if len(peaks) != len(addrs) {
			t.Fatalf("reduces ran on %d of %d workers: %v", len(peaks), len(addrs), peaks)
		}
		for w, peak := range peaks {
			if peak != 1 {
				t.Errorf("worker %s: %d reduces in flight at once, want 1", w, peak)
			}
		}
	})
}

// reducePeaks returns, per worker address, the most ReduceGroup calls
// the coordinator's rpc events show in flight at one instant. An event
// is recorded when its call returns, stamped then, so a call spans its
// stamp less its duration; a worker is acquired again only after the
// event of the call that held it is recorded.
func reducePeaks(events []obs.Event) map[string]int {
	type edge struct {
		at    time.Time
		delta int
	}
	edges := map[string][]edge{}
	for _, ev := range events {
		if ev.Kind != "rpc" || ev.Route != "Worker.ReduceGroup" {
			continue
		}
		dur := time.Duration(ev.DurationMS * float64(time.Millisecond))
		edges[ev.Worker] = append(edges[ev.Worker], edge{ev.Time.Add(-dur), 1}, edge{ev.Time, -1})
	}
	peaks := map[string]int{}
	for w, es := range edges {
		// An end sorts before a start at the same instant.
		slices.SortFunc(es, func(a, b edge) int {
			if c := a.at.Compare(b.at); c != 0 {
				return c
			}
			return a.delta - b.delta
		})
		n := 0
		for _, e := range es {
			n += e.delta
			peaks[w] = max(peaks[w], n)
		}
	}
	return peaks
}
