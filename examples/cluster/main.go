// Cluster: run the pipeline on real worker processes and ride out a
// failure. A traced run first shows the paper's two balance goals —
// rows routed per group and candidates per group — as numbers; then a
// TCP worker is killed mid-run and restarted, and the distributed
// answer still matches the sequential reference.
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"sort"
	"time"

	"zskyline"
	"zskyline/internal/dist"
	"zskyline/internal/obs"
	"zskyline/internal/point"
	"zskyline/internal/seq"
)

func main() {
	ds := zskyline.Generate(zskyline.AntiCorrelated, 60_000, 5, 11)

	cfg := zskyline.Defaults()
	cfg.M = 16
	eng, err := zskyline.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	// Trace the run: the same phase spans every executor emits, plus the
	// registry's absorbed work counters.
	tr := obs.NewTrace("engine")
	ctx := obs.ContextWithTrace(context.Background(), tr)
	start := time.Now()
	sky, rep, err := eng.Skyline(ctx, ds)
	if err != nil {
		log.Fatal(err)
	}
	tr.Finish()
	fmt.Printf("engine: skyline=%d in %v (input imbalance %.2f, candidate imbalance %.2f)\n",
		len(sky), time.Since(start).Round(time.Millisecond),
		rep.InputBalance().Imbalance, rep.CandidateBalance().Imbalance)
	reg := obs.NewRegistry()
	reg.AbsorbTally(rep.Tally)
	obs.WriteReport(os.Stdout, tr, reg)
	fmt.Println()

	killAndRestart(ds)
}

// killAndRestart runs the TCP deployment against real worker
// processes, kills one mid-query, restarts it, and shows the
// coordinator riding the failure: the in-flight tasks retry on the
// survivor, the resurrector re-dials the restarted worker and
// re-broadcasts the rule, and the skyline equals the sequential
// reference.
func killAndRestart(ds *point.Dataset) {
	fmt.Println("kill-and-restart on real TCP workers:")
	w0, err := dist.StartWorker("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer w0.Close()
	w1, err := dist.StartWorker("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	victim := w1.Addr()

	cfg := dist.DefaultCoordinatorConfig()
	cfg.M = 16
	cfg.ChunkSize = 2000
	cfg.RedialInterval = 25 * time.Millisecond
	coord, err := dist.NewCoordinator(cfg, []string{w0.Addr(), victim})
	if err != nil {
		log.Fatal(err)
	}
	defer coord.Close()

	// Kill the victim shortly into the query, restart it at the same
	// address a moment later — a crash-and-respawn with an empty rule
	// cache.
	go func() {
		time.Sleep(20 * time.Millisecond)
		w1.Close()
		fmt.Printf("  killed worker %s mid-run\n", victim)
		for {
			time.Sleep(25 * time.Millisecond)
			w, err := dist.StartWorker(victim)
			if err != nil {
				continue // port not yet released
			}
			fmt.Printf("  restarted worker %s (empty rule cache)\n", victim)
			defer w.Close()
			break
		}
	}()

	start := time.Now()
	sky, _, err := coord.Skyline(context.Background(), ds)
	if err != nil {
		log.Fatal(err)
	}
	want := seq.SB(ds.Points, nil)
	if !sameSkyline(sky, want) {
		log.Fatalf("distributed skyline (%d points) != sequential reference (%d points)",
			len(sky), len(want))
	}
	fmt.Printf("  skyline=%d in %v — identical to the sequential reference\n",
		len(sky), time.Since(start).Round(time.Millisecond))
}

func sameSkyline(a, b []point.Point) bool {
	if len(a) != len(b) {
		return false
	}
	key := func(p point.Point) string { return p.String() }
	as := make([]string, len(a))
	bs := make([]string, len(b))
	for i := range a {
		as[i], bs[i] = key(a[i]), key(b[i])
	}
	sort.Strings(as)
	sort.Strings(bs)
	for i := range as {
		if as[i] != bs[i] {
			return false
		}
	}
	return true
}
