package dist

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"zskyline/internal/dominance"
	"zskyline/internal/gen"
	"zskyline/internal/obs"
	"zskyline/internal/plan"
	"zskyline/internal/point"
	"zskyline/internal/transport"
	"zskyline/internal/zorder"
)

// TestClusterSweepMatchesBruteForce drives clusters of 1, 2, 3 and 8
// shards — both shard kernels, Pareto and flex — through interleaved
// inserts, a handoff A -> B -> A, and every query shape: full, prefix,
// suffix, interior to one shard, straddling cuts, inverted, broadcast.
// Every answer must be the reference skyline of the rows inserted so far
// restricted to the range, and must have cost no Worker.MergeGroups call.
// Coarse coordinates make ties, Z ties and duplicates common; under flex
// a dominator may have the larger address, so direction must not be used.
// Under Pareto a full query after inserts folds the shards' new rows
// into the previous full answer — also in the round right after each
// handoff — while the first full query and the one right after a
// handoff sweep; flex always sweeps.
func TestClusterSweepMatchesBruteForce(t *testing.T) {
	const dims = 3
	flex := dominance.Descriptor{Kind: dominance.KindFlex,
		Weights: [][]float64{{1, 1, 1}, {3, 1, 1}}}
	for _, shards := range []int{1, 2, 3, 8} {
		for _, zs := range []bool{true, false} {
			for _, desc := range []dominance.Descriptor{{}, flex} {
				name := fmt.Sprintf("shards%d/zs=%v/%s", shards, zs, desc.String())
				t.Run(name, func(t *testing.T) {
					g0, _ := startGroup(t, 1)
					g1, _ := startGroup(t, 1)
					cfg := testClusterConfig(dims)
					cfg.Shards, cfg.UseZS, cfg.Dominance = shards, zs, desc
					cfg.Events = obs.NewEventLog(1 << 14) // every rpc of the run
					ctx := context.Background()
					c, err := NewCluster(ctx, cfg, [][]string{g0, g1})
					if err != nil {
						t.Fatal(err)
					}
					defer c.Close()
					prov := c.rule.Provider()
					rng := rand.New(rand.NewSource(int64(shards)))
					var held []point.Point
					randomRows := func(n int) []point.Point {
						rows := make([]point.Point, n)
						for i := range rows {
							if len(held) > 0 && rng.Intn(6) == 0 {
								rows[i] = held[rng.Intn(len(held))].Clone()
								continue
							}
							rows[i] = make(point.Point, dims)
							for k := range rows[i] {
								rows[i][k] = float64(rng.Intn(16)) / 16
							}
						}
						return rows
					}
					randomAddr := func() zorder.ZAddr { return c.enc.Encode(randomRows(1)[0]) }
					pareto := dominance.IsPareto(prov)
					check := func(label string, qr zorder.Range, broadcast bool) *ClusterReport {
						t.Helper()
						got, rep, err := c.skyline(ctx, qr, broadcast)
						if err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						sameSet(t, got, oracleUnder(prov, inRange(c.enc, held, qr)), label)
						if rep.SkylineSize != len(got) || (rep.Merge == "sweep" && rep.Candidates < rep.SkylineSize) {
							t.Fatalf("%s: report %+v for %d rows", label, rep, len(got))
						}
						return rep
					}
					full := func(label, want string) {
						t.Helper()
						if !pareto {
							want = "sweep"
						}
						if rep := check(label, zorder.Range{}, false); rep.Merge != want {
							t.Fatalf("%s: merged by %q, want %q", label, rep.Merge, want)
						}
					}
					cuts := c.Map().Cuts
					for round := 0; round < 6; round++ {
						rows := randomRows(60 + rng.Intn(60))
						if err := c.Insert(ctx, rows); err != nil {
							t.Fatal(err)
						}
						held = append(held, rows...)
						full("full", map[bool]string{true: "sweep", false: "fold"}[round == 0])
						check("prefix", zorder.Range{Hi: randomAddr()}, false)
						check("suffix", zorder.Range{Lo: randomAddr()}, false)
						lo, hi := randomAddr(), randomAddr()
						if zorder.Compare(lo, hi) > 0 && round%3 > 0 {
							lo, hi = hi, lo // every third round keeps an inverted range
						}
						check("interior", zorder.Range{Lo: lo, Hi: hi}, false)
						check("broadcast", zorder.Range{Lo: lo, Hi: hi}, true)
						if len(cuts) > 0 {
							// From inside the range below a cut to the far end:
							// straddles that cut and every later one.
							cut := zorder.ZAddr(cuts[rng.Intn(len(cuts))])
							below := cut.Clone()
							below[0] -= 1 << 58
							check("straddling", zorder.Range{Lo: below}, false)
							check("on the cut", zorder.Range{Lo: cut}, false)
							check("up to the cut", zorder.Range{Hi: cut}, false)
						}
						// Shard 0 moves to B in round 1 and back to A in round 3.
						if to, ok := map[int]int{1: 1, 3: 0}[round]; ok {
							if _, err := c.Handoff(ctx, 0, to); err != nil {
								t.Fatal(err)
							}
							full("full after handoff", "sweep")
						}
					}
					for _, ev := range c.Events().Snapshot() {
						if ev.Route == "Worker.MergeGroups" {
							t.Fatalf("query %s issued a Worker.MergeGroups rpc", ev.Parent)
						}
					}
				})
			}
		}
	}
}

// TestClusterQueryMovesRowsOnce pins the wire cost of a full query to one
// crossing: a request of a few dozen bytes per shard out, the shard
// skylines in, and nothing else — no merge RPC under either relation.
// The query event says where the time went and the report how many rows
// were pulled for how many kept.
func TestClusterQueryMovesRowsOnce(t *testing.T) {
	const dims, shards = 4, 8
	flex := dominance.Descriptor{Kind: dominance.KindFlex,
		Weights: [][]float64{{1, 1, 1, 1}, {3, 1, 1, 1}}}
	ds := gen.Synthetic(gen.AntiCorrelated, 4000, dims, 31)
	for _, desc := range []dominance.Descriptor{{}, flex} {
		g0, _ := startGroup(t, 1)
		g1, _ := startGroup(t, 1)
		cfg := testClusterConfig(dims)
		cfg.Shards, cfg.UseZS, cfg.Dominance = shards, true, desc
		ctx := obs.ContextWithRequestID(context.Background(), "moves-once")
		c, err := NewCluster(ctx, cfg, [][]string{g0, g1})
		if err != nil {
			t.Fatal(err)
		}
		insertBatches(t, c, ds.Points, 1000)
		got, rep, err := c.Skyline(ctx)
		if err != nil {
			t.Fatal(err)
		}
		sameSet(t, got, oracleUnder(c.rule.Provider(), ds.Points), desc.String())

		var query obs.Event
		calls := map[string]int{}
		for _, ev := range c.Events().Snapshot() {
			switch {
			case ev.Kind == "rpc" && ev.Parent == "moves-once":
				calls[ev.Route]++
			case ev.Kind == "query" && ev.ID == "moves-once":
				query = ev
			}
		}
		if calls["Worker.MergeGroups"] != 0 || calls["Worker.ShardSkyline"] != shards {
			t.Errorf("%s: rpc calls %v, want %d ShardSkyline and no MergeGroups", desc, calls, shards)
		}
		if query.Route != "cluster/skyline" || query.Results != len(got) {
			t.Fatalf("%s: query event %+v", desc, query)
		}
		for _, phase := range []string{"shard-skylines", "merge/sweep"} {
			if _, ok := query.Phases[phase]; !ok {
				t.Errorf("%s: query event phases %v lack %q", desc, query.Phases, phase)
			}
		}
		if rep.Candidates < rep.SkylineSize || rep.SkylineSize != len(got) || rep.Candidates > len(ds.Points) {
			t.Errorf("%s: report %+v", desc, rep)
		}
		if rep.WireSentBytes > 300*shards {
			t.Errorf("%s: sent %d bytes for %d shard requests", desc, rep.WireSentBytes, shards)
		}
		if rep.Merge != "sweep" {
			t.Errorf("%s: the first full query merged by %q, want a sweep", desc, rep.Merge)
		}
		// A row is its coordinates: replies carry no address column. A
		// reply adds a frame header, the outcome, the gid, two framed
		// lengths and the batch count.
		rowBytes := int64(dims * 8)
		if limit := int64(rep.Candidates)*rowBytes + 64*shards; rep.WireRecvBytes > limit {
			t.Errorf("%s: received %d bytes for %d candidate rows, want at most %d", desc, rep.WireRecvBytes, rep.Candidates, limit)
		}
		c.Close()
	}
}

// TestClusterFanOutFailsFast: shard 1 has no live replica and says so at
// once; shard 0's replica would answer in two seconds. The query must
// not wait for it, and must report the shard that failed — classed
// fatal — not the cancellation it induced on the other.
func TestClusterFanOutFailsFast(t *testing.T) {
	const stall = 2 * time.Second
	slow, err := StartWorkerWithOptions("127.0.0.1:0", WorkerOptions{Faults: NewFaultPlan(
		FaultRule{Method: "Worker.ShardSkyline", Nth: 2, Count: 1000, Action: FaultDelay, Delay: stall})})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { slow.Close() })
	g1, s1 := startGroup(t, 1)
	cfg := testClusterConfig(3)
	cfg.Retries, cfg.RedialInterval = 1, -1
	ctx := obs.ContextWithRequestID(context.Background(), "fails-fast")
	c, err := NewCluster(ctx, cfg, [][]string{{slow.Addr()}, g1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ds := gen.Synthetic(gen.Independent, 400, 3, 13)
	insertBatches(t, c, ds.Points, 400)
	if _, _, err := c.Skyline(ctx); err != nil { // the one undelayed ShardSkyline
		t.Fatal(err)
	}
	s1[0].Close()
	start := time.Now()
	_, _, err = c.Skyline(ctx)
	if !errors.Is(err, ErrShardDown) {
		t.Fatalf("skyline with shard 1 down: %v, want ErrShardDown", err)
	}
	if took := time.Since(start); took > stall*3/4 {
		t.Errorf("query took %v: it waited out the stalled sibling", took)
	}
	if last := lastQueryEvent(c, "fails-fast"); last.Error != "fatal" || last.Message != err.Error() {
		t.Errorf("query event error=%q message=%q, want fatal / %q", last.Error, last.Message, err)
	}
}

// lastQueryEvent returns the latest query event a Cluster or a
// Coordinator recorded under id.
func lastQueryEvent(c interface{ Events() *obs.EventLog }, id string) obs.Event {
	var last obs.Event
	for _, ev := range c.Events().Snapshot() {
		if ev.Kind == "query" && ev.ID == id {
			last = ev
		}
	}
	return last
}

// lyingWorker is a worker whose replies pass through lie on their way
// out; lie sees each call's method and request payload too.
type lyingWorker struct {
	*Worker
	lie func(method uint16, payload []byte, reply transport.Marshaler) transport.Marshaler
}

func (l lyingWorker) ServeFrame(method uint16, payload []byte) (transport.Marshaler, error) {
	reply, err := l.Worker.ServeFrame(method, payload)
	if err != nil {
		return nil, err
	}
	return l.lie(method, payload, reply), nil
}

// startLyingWorker serves a lyingWorker on a loopback port until the
// test ends.
func startLyingWorker(t *testing.T, lie func(method uint16, payload []byte, reply transport.Marshaler) transport.Marshaler) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	l := lyingWorker{lie: lie, Worker: &Worker{rules: map[uint64]*plan.Rule{}, addr: ln.Addr().String(),
		reg: obs.NewRegistry(), resident: map[int]*residentShard{}, staged: map[stageKey]*residentShard{}}}
	var (
		mu    sync.Mutex
		conns []net.Conn
		wg    sync.WaitGroup
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns = append(conns, conn)
			mu.Unlock()
			wg.Add(1)
			go func() {
				defer wg.Done()
				transport.ServeConn(conn, l, transport.ServeOptions{})
			}()
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		mu.Lock()
		for _, conn := range conns {
			conn.Close()
		}
		mu.Unlock()
		wg.Wait()
	})
	return ln.Addr().String()
}

// TestClusterRejectsBadShardReply: a replica that answers for shard 0
// with a row from another shard's range, rows of the wrong width or a
// negative batch count gets the query failed with ErrBadShardReply —
// classed fatal, recorded — never a skyline. The coordinator encodes
// every reply's rows itself, so a column that is short, missing, or
// inside the range but not the rows' own cannot touch the answer: the
// first full query (a sweep) and the next one after an insert (a fold
// into the first) are both exact.
func TestClusterRejectsBadShardReply(t *testing.T) {
	const dims = 3
	ds := gen.Synthetic(gen.Independent, 600, dims, 3)
	far := point.Point{0.99, 0.99, 0.99} // last shard's range, and dominated
	rebuild := func(g plan.Group, rows ...point.Point) point.Block {
		bb := point.NewBlockBuilder(dims, g.Len()+len(rows))
		bb.AppendBlock(g.Block)
		for _, p := range rows {
			bb.Append(p)
		}
		return bb.Build()
	}
	cases := []struct {
		name   string
		bad    bool
		mutate func(enc *zorder.Encoder, r *ShardSkyReply)
	}{
		{"out-of-range row", true, func(enc *zorder.Encoder, r *ShardSkyReply) {
			r.Group.Block = rebuild(r.Group, far)
		}},
		{"narrow rows", true, func(_ *zorder.Encoder, r *ShardSkyReply) {
			r.Group.Block = point.Block{Dims: dims - 1, Data: make([]float64, dims-1)}
		}},
		{"negative batch count", true, func(_ *zorder.Encoder, r *ShardSkyReply) {
			r.Batches = -1
		}},
		{"short column", false, func(enc *zorder.Encoder, r *ShardSkyReply) {
			if zc := enc.EncodeBlock(zorder.ZCol{}, r.Group.Block); zc.Len() > 0 {
				r.Group.ZCol = zc.Slice(0, zc.Len()-1)
			}
		}},
		{"column lies inside the range", false, func(enc *zorder.Encoder, r *ShardSkyReply) {
			// Every row claims the first row's address: in range, sorted,
			// and wrong for all but the rows that share it.
			zc := zorder.ZCol{Words: enc.Words()}
			for i := 0; i < r.Group.Len(); i++ {
				zc.AppendAddr(enc.Encode(r.Group.Block.Row(0)))
			}
			r.Group.ZCol = zc
		}},
		{"no column", false, func(_ *zorder.Encoder, r *ShardSkyReply) {
			r.Group.ZCol = zorder.ZCol{}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testClusterConfig(dims)
			cfg.Shards, cfg.UseZS = 4, true
			enc, err := zorder.NewEncoder(dims, cfg.Bits, cfg.Mins, cfg.Maxs)
			if err != nil {
				t.Fatal(err)
			}
			liar := startLyingWorker(t, func(method uint16, payload []byte, reply transport.Marshaler) transport.Marshaler {
				var args ShardSkyArgs
				if sky, ok := reply.(ShardSkyReply); ok && args.DecodeFrom(payload) == nil && args.ShardID == 0 {
					tc.mutate(enc, &sky)
					return sky
				}
				return reply
			})
			g1, _ := startGroup(t, 1)
			ctx := obs.ContextWithRequestID(context.Background(), "bad-reply")
			c, err := NewCluster(ctx, cfg, [][]string{{liar}, g1})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			insertBatches(t, c, ds.Points[:400], 200)
			got, _, err := c.Skyline(ctx)
			if !tc.bad {
				if err != nil {
					t.Fatal(err)
				}
				sameSet(t, got, oracleUnder(c.rule.Provider(), ds.Points[:400]), tc.name)
				insertBatches(t, c, ds.Points[400:], 200)
				got, rep, err := c.Skyline(ctx)
				if err != nil {
					t.Fatal(err)
				}
				if rep.Merge != "fold" {
					t.Fatalf("the second full query merged by %q, want a fold", rep.Merge)
				}
				sameSet(t, got, oracleUnder(c.rule.Provider(), ds.Points), tc.name+", folded")
				return
			}
			if !errors.Is(err, ErrBadShardReply) || got != nil {
				t.Fatalf("%d rows, err %v; want ErrBadShardReply and no skyline", len(got), err)
			}
			if last := lastQueryEvent(c, "bad-reply"); last.Error != "fatal" || last.Message != err.Error() {
				t.Errorf("query event error=%q message=%q, want fatal / %q", last.Error, last.Message, err)
			}
		})
	}
}
