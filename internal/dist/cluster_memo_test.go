package dist

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"zskyline/internal/gen"
	"zskyline/internal/obs"
	"zskyline/internal/point"
	"zskyline/internal/seq"
	"zskyline/internal/zorder"
)

// TestClusterFullQueriesRaceInserts runs full queries on two goroutines
// while a third inserts. No answer may hold a row more times than it was
// inserted — a delta folded twice would — and once the inserts stop a
// full query must be the oracle of everything inserted, which a skipped
// delta would miss for good.
func TestClusterFullQueriesRaceInserts(t *testing.T) {
	const dims, batches, perBatch = 3, 30, 100
	g0, _ := startGroup(t, 2)
	g1, _ := startGroup(t, 1)
	cfg := testClusterConfig(dims)
	cfg.Shards = 4
	ctx := context.Background()
	c, err := NewCluster(ctx, cfg, [][]string{g0, g1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	pts := gen.Synthetic(gen.Independent, batches*perBatch, dims, 61).Points
	for i := 10; i < len(pts); i += 10 {
		pts[i] = pts[i-7].Clone() // copies, some in the same batch
	}
	inserted := map[string]int{}
	for _, p := range pts {
		inserted[fmt.Sprint(p)]++
	}

	stop := make(chan struct{})
	var (
		wg    sync.WaitGroup
		folds atomic.Int64
	)
	for q := 0; q < 2; q++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				sky, rep, err := c.Skyline(ctx)
				if err != nil {
					t.Error(err)
					return
				}
				if rep.Merge == "fold" {
					folds.Add(1)
				}
				held := map[string]int{}
				for _, p := range sky {
					k := fmt.Sprint(p)
					if held[k]++; held[k] > inserted[k] {
						t.Errorf("an answer holds %v %d times; it was inserted %d times", p, held[k], inserted[k])
						return
					}
				}
			}
		}()
	}
	insertBatches(t, c, pts, perBatch)
	close(stop)
	wg.Wait()

	got, rep, err := c.Skyline(ctx)
	if err != nil {
		t.Fatal(err)
	}
	sameSet(t, got, seq.SB(pts, nil), "after the last insert")
	if rep.Merge != "fold" || folds.Load() == 0 {
		t.Errorf("final query merged by %q, %d folds while inserting: the fold path went unexercised",
			rep.Merge, folds.Load())
	}
}

// TestClusterFullQueryAfterWorkerRestart kills and restarts the one
// worker of shard 1's group between two full queries, as the coordinator
// has always met it: the restarted process holds no shard, so the next
// full query fails "not resident" with class shard-moved, and once new
// inserts have re-created the shard there, a full query answers from
// what the workers now hold. The coordinator's memo of the shard's old
// rows must not leak into that answer: the restart counts as a new
// cluster epoch, so the query sweeps.
func TestClusterFullQueryAfterWorkerRestart(t *testing.T) {
	const dims = 3
	g0, _ := startGroup(t, 1)
	g1, s1 := startGroup(t, 1)
	cfg := testClusterConfig(dims)
	cfg.Shards, cfg.RedialInterval = 2, 20*time.Millisecond
	ctx := context.Background()
	c, err := NewCluster(ctx, cfg, [][]string{g0, g1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	pts := gen.Synthetic(gen.Independent, 1100, dims, 71).Points
	before, after := pts[:500], pts[500:]
	insertBatches(t, c, before[:400], 100)
	if _, _, err := c.Skyline(ctx); err != nil {
		t.Fatal(err)
	}
	insertBatches(t, c, before[400:], 100)
	got, rep, err := c.Skyline(ctx)
	if err != nil {
		t.Fatal(err)
	}
	sameSet(t, got, seq.SB(before, nil), "before the restart")
	if rep.Merge != "fold" {
		t.Fatalf("full query after an insert merged by %q, want a fold", rep.Merge)
	}

	addr := s1[0].Addr()
	s1[0].Close()
	var restarted *WorkerServer
	waitFor(t, 5*time.Second, "rebind of worker address", func() bool {
		w, err := StartWorker(addr)
		if err != nil {
			return false
		}
		restarted = w
		return true
	})
	t.Cleanup(func() { restarted.Close() })

	if _, _, err := c.Skyline(ctx); err == nil || classify(err) != classShardMoved {
		t.Fatalf("full query right after the restart: %v, want a shard-moved failure", err)
	}
	// Six batches, more than the five shard 1 held before the restart.
	insertBatches(t, c, after, 100)
	shard1 := zorder.Range{Lo: zorder.ZAddr(c.Map().Cuts[0])}
	var held []point.Point
	held = append(held, inRange(c.enc, pts, zorder.Range{Hi: shard1.Lo})...)
	held = append(held, inRange(c.enc, after, shard1)...)
	got, rep, err = c.Skyline(ctx)
	if err != nil {
		t.Fatal(err)
	}
	sameSet(t, got, seq.SB(held, nil), "after the restart and new inserts")
	if rep.Merge != "sweep" {
		t.Errorf("first full query after a restart merged by %q, want a sweep", rep.Merge)
	}
}

// TestClusterFullQueryDuringRepairCommit hands a shard to its own group
// — the stale-replica repair — and runs a full query after the first
// replica has committed and while the second one's commit stalls. The
// committed replica's batch list is cut anew by the handoff stream (a
// 10-row and a 300-row batch become one 310-row batch), so a cursor into
// the old list means nothing there: the query must not fold a delta cut
// from it, and must be exact.
func TestClusterFullQueryDuringRepairCommit(t *testing.T) {
	const dims, stall = 3, 1500 * time.Millisecond
	a, _ := startGroup(t, 1)
	b, err := StartWorkerWithOptions("127.0.0.1:0", WorkerOptions{Faults: NewFaultPlan(
		FaultRule{Method: "Worker.CommitShard", Nth: 1, Count: 1, Action: FaultDelay, Delay: stall})})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	cfg := testClusterConfig(dims)
	cfg.Shards = 1
	ctx := context.Background()
	c, err := NewCluster(ctx, cfg, [][]string{{a[0], b.Addr()}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	pts := gen.Synthetic(gen.Independent, 310, dims, 83).Points
	insertBatches(t, c, pts[:10], 10)
	if _, _, err := c.Skyline(ctx); err != nil { // the memo covers batch 0
		t.Fatal(err)
	}
	insertBatches(t, c, pts[10:], 300)

	handed := make(chan error, 1)
	go func() {
		_, err := c.Handoff(ctx, 0, 0)
		handed <- err
	}()
	time.Sleep(stall / 3) // the first replica commits at once
	got, _, err := c.Skyline(ctx)
	if err != nil {
		t.Fatal(err)
	}
	sameSet(t, got, seq.SB(pts, nil), "during the repair commit")
	if err := <-handed; err != nil {
		t.Fatal(err)
	}
	got, _, err = c.Skyline(ctx)
	if err != nil {
		t.Fatal(err)
	}
	sameSet(t, got, seq.SB(pts, nil), "after the repair")
}

// BenchmarkClusterFullQuery times the full query of the cluster-mixed
// shape — independent d=8 rows on two single-worker groups cut into 8
// shards, 60k preloaded in 1,024-row blocks, three 1,024-row inserts
// (untimed) before each query — and splits its wall, from the query
// event, into the shard fan-out and the cross-shard merge.
func BenchmarkClusterFullQuery(b *testing.B) {
	const dims, block = 8, 1024
	var groups [][]string
	for i := 0; i < 2; i++ {
		ws, err := StartWorker("127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { ws.Close() })
		groups = append(groups, []string{ws.Addr()})
	}
	mins, maxs := make([]float64, dims), make([]float64, dims)
	for i := range maxs {
		maxs[i] = 1
	}
	ctx := context.Background()
	c, err := NewCluster(ctx, ClusterConfig{Mins: mins, Maxs: maxs, Bits: 16, UseZS: true, Shards: 8, Seed: 42}, groups)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	src := gen.NewSource(gen.Independent, 1<<30, dims, 42)
	insert := func(n int) {
		for i := 0; i < n; i++ {
			blk, err := src.Next(block)
			if err != nil {
				b.Fatal(err)
			}
			if err := c.InsertBlock(ctx, blk); err != nil {
				b.Fatal(err)
			}
		}
	}
	insert(60000 / block)
	if _, _, err := c.Skyline(ctx); err != nil {
		b.Fatal(err)
	}
	var fanOut, merge, candidates float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		insert(3)
		b.StartTimer()
		_, rep, err := c.Skyline(ctx)
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		var ev obs.Event
		for _, e := range c.Events().Snapshot() {
			if e.Kind == "query" {
				ev = e
			}
		}
		fanOut += ev.Phases["shard-skylines"]
		merge += ev.Phases["merge/sweep"] + ev.Phases["merge/fold"]
		candidates += float64(rep.Candidates)
		b.StartTimer()
	}
	b.ReportMetric(fanOut/float64(b.N), "shard_skylines_ms/op")
	b.ReportMetric(merge/float64(b.N), "merge_ms/op")
	b.ReportMetric(candidates/float64(b.N), "candidates/op")
}
