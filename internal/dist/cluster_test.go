package dist

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"zskyline/internal/dominance"
	"zskyline/internal/gen"
	"zskyline/internal/plan"
	"zskyline/internal/point"
	"zskyline/internal/seq"
	"zskyline/internal/zorder"
)

// startGroup spins up n plain workers as one group.
func startGroup(t *testing.T, n int) ([]string, []*WorkerServer) {
	t.Helper()
	addrs := make([]string, n)
	servers := make([]*WorkerServer, n)
	for i := 0; i < n; i++ {
		ws, err := StartWorker("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ws.Close() })
		addrs[i] = ws.Addr()
		servers[i] = ws
	}
	return addrs, servers
}

// testClusterConfig is the base config the cluster tests share: unit
// cube bounds, fast retries, and small handoff batches so streams span
// multiple pulls.
func testClusterConfig(dims int) ClusterConfig {
	mins := make([]float64, dims)
	maxs := make([]float64, dims)
	for i := range maxs {
		maxs[i] = 1
	}
	return ClusterConfig{
		Mins: mins, Maxs: maxs, Bits: 12,
		Retries: 3, RPCTimeout: 5 * time.Second,
		PullRows: 256, Seed: 7,
	}
}

// insertBatches feeds the dataset in several InsertBlock calls so
// shards accumulate multiple append groups (exercising the PullShard
// cursor during handoffs).
func insertBatches(t *testing.T, c *Cluster, pts []point.Point, batch int) {
	t.Helper()
	for lo := 0; lo < len(pts); lo += batch {
		hi := min(lo+batch, len(pts))
		if err := c.Insert(context.Background(), pts[lo:hi]); err != nil {
			t.Fatal(err)
		}
	}
}

func TestClusterSkylineExact(t *testing.T) {
	for _, dist := range []gen.Distribution{gen.Independent, gen.Correlated, gen.AntiCorrelated} {
		// Fresh workers per cluster: shard residency is cluster-scoped
		// worker state, and a second cluster reusing the processes would
		// find (and append to) the first one's resident shards.
		g0, _ := startGroup(t, 2)
		g1, _ := startGroup(t, 2)
		ds := gen.Synthetic(dist, 3000, 4, 23)
		want := seq.SB(ds.Points, nil)
		c, err := NewCluster(context.Background(), testClusterConfig(4), [][]string{g0, g1})
		if err != nil {
			t.Fatal(err)
		}
		insertBatches(t, c, ds.Points, 500)
		got, rep, err := c.Skyline(context.Background())
		if err != nil {
			c.Close()
			t.Fatalf("%v: %v", dist, err)
		}
		sameSet(t, got, want, dist.String())
		if rep.Shards != 2 || rep.Routed != 2 {
			t.Errorf("%v: routed %d/%d shards, want 2/2", dist, rep.Routed, rep.Shards)
		}
		if rep.MapVersion != 1 {
			t.Errorf("%v: map version %d, want 1", dist, rep.MapVersion)
		}
		c.Close()
	}
}

func TestClusterEmptyAndSingleShardQueries(t *testing.T) {
	g0, _ := startGroup(t, 1)
	g1, _ := startGroup(t, 1)
	cfg := testClusterConfig(3)
	c, err := NewCluster(context.Background(), cfg, [][]string{g0, g1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Empty cluster answers the empty skyline, not "not resident".
	got, _, err := c.Skyline(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("empty cluster skyline has %d points", len(got))
	}
	// A range inside one shard routes to exactly that shard.
	ds := gen.Synthetic(gen.Independent, 1000, 3, 5)
	insertBatches(t, c, ds.Points, 300)
	cut := c.Map().Cuts[0]
	_, rep, err := c.SkylineRange(context.Background(), nil, zorder.ZAddr(cut))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Routed != 1 || rep.Shards != 2 {
		t.Fatalf("routed %d/%d shards, want 1/2", rep.Routed, rep.Shards)
	}
}

// rangeOracle computes the exact skyline of the points whose Z-address
// falls in rng, using the same encoder geometry as the cluster.
func rangeOracle(t *testing.T, cfg ClusterConfig, pts []point.Point, rng zorder.Range) []point.Point {
	t.Helper()
	enc, err := zorder.NewEncoder(len(cfg.Mins), cfg.Bits, cfg.Mins, cfg.Maxs)
	if err != nil {
		t.Fatal(err)
	}
	return seq.SB(inRange(enc, pts, rng), nil)
}

func TestClusterRangeQueryExact(t *testing.T) {
	g0, _ := startGroup(t, 2)
	g1, _ := startGroup(t, 2)
	cfg := testClusterConfig(4)
	cfg.Shards = 4 // 2 shards per group: range routing beats broadcast
	c, err := NewCluster(context.Background(), cfg, [][]string{g0, g1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ds := gen.Synthetic(gen.AntiCorrelated, 4000, 4, 11)
	insertBatches(t, c, ds.Points, 600)

	m := c.Map()
	// Query shard 1's range exactly: [cut0, cut1).
	lo, hi := zorder.ZAddr(m.Cuts[0]), zorder.ZAddr(m.Cuts[1])
	want := rangeOracle(t, cfg, ds.Points, zorder.Range{Lo: lo, Hi: hi})

	got, rep, err := c.SkylineRange(context.Background(), lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	sameSet(t, got, want, "routed range")
	if rep.Routed != 1 || rep.Shards != 4 {
		t.Errorf("routed %d/%d shards, want 1/4", rep.Routed, rep.Shards)
	}

	bGot, bRep, err := c.SkylineRangeBroadcast(context.Background(), lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	sameSet(t, bGot, want, "broadcast range")
	if bRep.Routed != 4 {
		t.Errorf("broadcast routed %d shards, want 4", bRep.Routed)
	}
	if bRep.WireSentBytes <= rep.WireSentBytes {
		t.Errorf("broadcast sent %d bytes, routed sent %d: routing should move fewer",
			bRep.WireSentBytes, rep.WireSentBytes)
	}
}

func TestClusterHandoffMidRun(t *testing.T) {
	g0, _ := startGroup(t, 2)
	g1, _ := startGroup(t, 2)
	c, err := NewCluster(context.Background(), testClusterConfig(4), [][]string{g0, g1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ds := gen.Synthetic(gen.Independent, 2500, 4, 31)
	want := seq.SB(ds.Points, nil)
	insertBatches(t, c, ds.Points, 400)

	// Queries hammer the cluster while shard 0 moves group 0 -> 1 and
	// back; every answer must be exact whichever map version it routed
	// under.
	stop := make(chan struct{})
	errCh := make(chan error, 16)
	var wg sync.WaitGroup
	for q := 0; q < 4; q++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				got, _, err := c.Skyline(context.Background())
				if err != nil {
					errCh <- err
					return
				}
				if len(got) != len(want) {
					errCh <- fmt.Errorf("mid-handoff skyline has %d points, want %d", len(got), len(want))
					return
				}
			}
		}()
	}
	rep, err := c.Handoff(context.Background(), 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.MapVersion != 2 || rep.ToGroup != 1 {
		t.Fatalf("handoff report %+v", rep)
	}
	if rep.Replicas != 2 {
		t.Errorf("committed on %d replicas, want 2", rep.Replicas)
	}
	if _, err := c.Handoff(context.Background(), 0, 0); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}

	if v := c.Map().Version; v != 3 {
		t.Errorf("map version %d after two handoffs, want 3", v)
	}
	got, _, err := c.Skyline(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	sameSet(t, got, want, "post-handoff")

	// Inserts keep routing correctly under the new map.
	extra := gen.Synthetic(gen.Correlated, 800, 4, 41)
	insertBatches(t, c, extra.Points, 300)
	all := append(append([]point.Point(nil), ds.Points...), extra.Points...)
	got, _, err = c.Skyline(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	sameSet(t, got, seq.SB(all, nil), "post-handoff insert")
}

func TestClusterHandoffSeveredMidStream(t *testing.T) {
	// Source member A severs the connection on every PullShard; the
	// stream must resume at the same cursor on replica B.
	faults, err := ParseFaultPlan("Worker.PullShard:1x100:sever")
	if err != nil {
		t.Fatal(err)
	}
	wa, err := StartWorkerWithFaults("127.0.0.1:0", faults)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { wa.Close() })
	wb, err := StartWorker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { wb.Close() })
	g1, _ := startGroup(t, 2)

	cfg := testClusterConfig(4)
	cfg.RedialInterval = 50 * time.Millisecond
	c, err := NewCluster(context.Background(), cfg, [][]string{{wa.Addr(), wb.Addr()}, g1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ds := gen.Synthetic(gen.AntiCorrelated, 2000, 4, 13)
	want := seq.SB(ds.Points, nil)
	insertBatches(t, c, ds.Points, 250)

	rep, err := c.Handoff(context.Background(), 0, 1)
	if err != nil {
		t.Fatalf("handoff across severed stream: %v", err)
	}
	rows := c.ShardRows()
	if int64(rep.Rows) != rows[0] {
		t.Errorf("streamed %d rows, shard holds %d", rep.Rows, rows[0])
	}
	got, _, err := c.Skyline(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	sameSet(t, got, want, "post-severed-handoff")
	if faults.Injected() == 0 {
		t.Error("fault plan never fired; test exercised nothing")
	}
	// Each pulled cursor is one call and one rpc event, whose attempt
	// count covers every PullShard request the sources received: the
	// severed ones and the one served. Every re-issue is a counted retry.
	calls, attempts := 0, 0
	for _, ev := range c.Events().Snapshot() {
		if ev.Kind == "rpc" && ev.Route == "Worker.PullShard" {
			if ev.Error != "" {
				t.Errorf("PullShard event for one failed attempt: %+v", ev)
			}
			calls++
			attempts += ev.Attempts
		}
	}
	received := faults.Injected()
	for _, ws := range []*WorkerServer{wa, wb} {
		var buf writerBuf
		if err := ws.Metrics().WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		received += int(sumLabeled(string(buf), "zsky_rpc_requests_total", `method="PullShard"`))
	}
	if attempts != received {
		t.Errorf("PullShard events carry %d attempts, the sources received %d requests", attempts, received)
	}
	var prom writerBuf
	if err := c.Metrics().WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	retries := sumLabeled(string(prom), "zsky_dist_retries_total", `method="Worker.PullShard"`)
	if retries == 0 || int(retries) != attempts-calls {
		t.Errorf(`zsky_dist_retries_total{method="Worker.PullShard"} = %v, want %d (attempts %d over %d calls)`,
			retries, attempts-calls, attempts, calls)
	}
}

func TestClusterShardMapVersionRace(t *testing.T) {
	g0, _ := startGroup(t, 2)
	g1, _ := startGroup(t, 2)
	c, err := NewCluster(context.Background(), testClusterConfig(3), [][]string{g0, g1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ds := gen.Synthetic(gen.Independent, 1500, 3, 19)
	want := seq.SB(ds.Points, nil)
	insertBatches(t, c, ds.Points, 250)

	stop := make(chan struct{})
	errCh := make(chan error, 16)
	var wg sync.WaitGroup
	for q := 0; q < 3; q++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				// The snapshot a query routes under must always be a valid
				// map: every address with exactly one owner.
				m := c.Map()
				if err := m.Validate(c.Groups()); err != nil {
					errCh <- err
					return
				}
				got, rep, err := c.Skyline(context.Background())
				if err != nil {
					errCh <- err
					return
				}
				if len(got) != len(want) {
					errCh <- fmt.Errorf("v%d skyline has %d points, want %d",
						rep.MapVersion, len(got), len(want))
					return
				}
			}
		}()
	}
	var lastVer uint64 = 1
	for i := 0; i < 4; i++ {
		to := (i + 1) % 2
		rep, err := c.Handoff(context.Background(), i%2, to)
		if err != nil {
			t.Fatal(err)
		}
		if rep.MapVersion <= lastVer {
			t.Fatalf("map version went %d -> %d", lastVer, rep.MapVersion)
		}
		lastVer = rep.MapVersion
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
}

func TestClusterMemberDeathAndRepair(t *testing.T) {
	g0a, s0 := startGroup(t, 2)
	g1, _ := startGroup(t, 1)
	cfg := testClusterConfig(3)
	cfg.Retries = 1
	cfg.RPCTimeout = time.Second
	cfg.RedialInterval = -1 // dead stays dead
	c, err := NewCluster(context.Background(), cfg, [][]string{g0a, g1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ds := gen.Synthetic(gen.Independent, 1200, 3, 29)
	insertBatches(t, c, ds.Points, 400)

	// Kill one replica of group 0, then insert: the write fails there
	// after pinned retries, the member goes stale, the insert succeeds
	// on the survivor.
	s0[1].Close()
	extra := gen.Synthetic(gen.Correlated, 400, 3, 37)
	insertBatches(t, c, extra.Points, 200)

	all := append(append([]point.Point(nil), ds.Points...), extra.Points...)
	want := seq.SB(all, nil)
	got, _, err := c.Skyline(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	sameSet(t, got, want, "with stale replica")

	// The shard survives on one replica; moving it to group 1 restores
	// replication without the dead member.
	if _, err := c.Handoff(context.Background(), 0, 1); err != nil {
		t.Fatal(err)
	}
	got, _, err = c.Skyline(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	sameSet(t, got, want, "post-repair")
}

func TestClusterAllReplicasDown(t *testing.T) {
	g0, s0 := startGroup(t, 1)
	g1, _ := startGroup(t, 1)
	cfg := testClusterConfig(3)
	cfg.Retries = 1
	cfg.RPCTimeout = 500 * time.Millisecond
	cfg.RedialInterval = -1
	c, err := NewCluster(context.Background(), cfg, [][]string{g0, g1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ds := gen.Synthetic(gen.Independent, 300, 3, 3)
	insertBatches(t, c, ds.Points, 300)
	s0[0].Close()
	_, _, err = c.Skyline(context.Background())
	if !errors.Is(err, ErrShardDown) {
		t.Fatalf("skyline with a dead shard: %v, want ErrShardDown", err)
	}
}

func TestClusterRejectsNonTransitive(t *testing.T) {
	g0, _ := startGroup(t, 1)
	cfg := testClusterConfig(3)
	cfg.Dominance = dominance.Descriptor{Kind: dominance.KindKDom, K: 2}
	if _, err := NewCluster(context.Background(), cfg, [][]string{g0}); err == nil {
		t.Fatal("k-dominance accepted: shard-local skylines are unsound to merge under a non-transitive relation")
	}
}

func TestClusterRejectsShardsCutsMismatch(t *testing.T) {
	g0, _ := startGroup(t, 1)
	cfg := testClusterConfig(3)
	cfg.Cuts = [][]uint64{{1 << 30}} // 1 cut -> 2 shards
	cfg.Shards = 3
	if _, err := NewCluster(context.Background(), cfg, [][]string{g0}); err == nil {
		t.Fatal("inconsistent Shards/Cuts pair accepted")
	}
	// The consistent pair still constructs.
	cfg.Shards = 2
	c, err := NewCluster(context.Background(), cfg, [][]string{g0})
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
}

// TestWorkerShardSkylineVersionRace hammers ShardSkyline concurrently
// with strictly increasing map versions: folding the version forward
// must happen under the write lock, never under the read lock the
// snapshot takes (the race detector catches the regression).
func TestWorkerShardSkylineVersionRace(t *testing.T) {
	w, _ := bareWorker(t, 2, 8, plan.SB, dominance.Descriptor{})
	w.resident[0] = &residentShard{}
	const goroutines, iters = 4, 200
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				var reply ShardSkyReply
				if err := w.ShardSkyline(ShardSkyArgs{RuleID: 1, ShardID: 0,
					MapVersion: uint64(g*iters + i + 1)}, &reply); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	var stats ShardStatsReply
	if err := w.ShardStats(ShardStatsArgs{}, &stats); err != nil {
		t.Fatal(err)
	}
	if want := uint64(goroutines * iters); stats.MapVersion != want {
		t.Errorf("installed version %d, want %d", stats.MapVersion, want)
	}
}

// TestClusterInsertFatalMarksUnwrittenReplicasStale drives an insert
// into a fatal mid-replication abort (one replica rejects over its
// resident cap after the other stored the batch) and requires the
// rejecting replica to go stale: replicas that silently diverge would
// break PullShard cursor portability and serve short skylines.
func TestClusterInsertFatalMarksUnwrittenReplicasStale(t *testing.T) {
	wa, err := StartWorker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { wa.Close() })
	wb, err := StartWorkerWithOptions("127.0.0.1:0", WorkerOptions{MaxResidentRows: 60})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { wb.Close() })

	c, err := NewCluster(context.Background(), testClusterConfig(3),
		[][]string{{wa.Addr(), wb.Addr()}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ds := gen.Synthetic(gen.Independent, 100, 3, 53)

	// First 50 rows fit both replicas; the next 50 push the capped one
	// over 60 — a fatal verdict after the uncapped member stored them.
	if err := c.Insert(context.Background(), ds.Points[:50]); err != nil {
		t.Fatal(err)
	}
	if err := c.Insert(context.Background(), ds.Points[50:]); err == nil {
		t.Fatal("over-cap insert succeeded")
	}
	c.mu.Lock()
	capped := c.stale[0][1]
	c.mu.Unlock()
	if !capped {
		t.Fatal("replica that rejected the batch is still fresh: the group diverged silently")
	}

	// The surviving replica holds every row, so the skyline over the
	// full dataset is exact, and further inserts land on it alone.
	got, _, err := c.Skyline(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	sameSet(t, got, seq.SB(ds.Points, nil), "after fatal insert abort")
	extra := gen.Synthetic(gen.Correlated, 40, 3, 59)
	if err := c.Insert(context.Background(), extra.Points); err != nil {
		t.Fatal(err)
	}
	all := append(append([]point.Point(nil), ds.Points...), extra.Points...)
	got, _, err = c.Skyline(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	sameSet(t, got, seq.SB(all, nil), "insert after stale mark")
}

// TestClusterHandoffRetryAfterAbortedStage fails a handoff at commit
// (after the full copy staged) with the abort's DropStaged also
// failing, so the target keeps the leftover staging area. The retry
// must not append onto it: staging epochs are unique per attempt, so
// the shard ends up with exactly one copy.
func TestClusterHandoffRetryAfterAbortedStage(t *testing.T) {
	faults, err := ParseFaultPlan("Worker.CommitShard:1x4:sever,Worker.DropStaged:1x8:sever")
	if err != nil {
		t.Fatal(err)
	}
	src, err := StartWorker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { src.Close() })
	dst, err := StartWorkerWithFaults("127.0.0.1:0", faults)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dst.Close() })

	cfg := testClusterConfig(3)
	cfg.RedialInterval = 50 * time.Millisecond
	c, err := NewCluster(context.Background(), cfg,
		[][]string{{src.Addr()}, {dst.Addr()}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ds := gen.Synthetic(gen.Independent, 1500, 3, 61)
	want := seq.SB(ds.Points, nil)
	insertBatches(t, c, ds.Points, 250)

	if _, err := c.Handoff(context.Background(), 0, 1); err == nil {
		t.Fatal("handoff with severed commits succeeded")
	}
	if faults.Injected() == 0 {
		t.Fatal("fault plan never fired; test exercised nothing")
	}

	rep, err := c.Handoff(context.Background(), 0, 1)
	if err != nil {
		t.Fatalf("handoff retry: %v", err)
	}
	if rep.MapVersion != 2 {
		t.Errorf("retry flipped to version %d, want 2", rep.MapVersion)
	}
	if got := c.ShardRows()[0]; int64(rep.Rows) != got {
		t.Errorf("retry streamed %d rows, shard holds %d", rep.Rows, got)
	}
	stats := c.ShardStats(context.Background())
	if resident, ok := stats[dst.Addr()]; !ok {
		t.Error("target worker unreachable for stats")
	} else if resident.Rows[0] != int64(rep.Rows) {
		t.Errorf("target resident %d rows for shard 0, want %d: leftover stage polluted the retry",
			resident.Rows[0], rep.Rows)
	}
	got, _, err := c.Skyline(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	sameSet(t, got, want, "post-aborted-stage retry")
}
