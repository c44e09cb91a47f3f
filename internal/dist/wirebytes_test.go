package dist

import (
	"context"
	"testing"

	"zskyline/internal/gen"
	"zskyline/internal/zorder"
)

// rpcTotals tallies a coordinator's rpc events: calls per method and
// the summed request and response frame bytes.
func rpcTotals(c *Coordinator) (calls map[string]int, sent, recv int64) {
	calls = map[string]int{}
	for _, ev := range c.Events().Snapshot() {
		if ev.Kind == "rpc" {
			calls[ev.Route]++
			sent += ev.WireSentBytes
			recv += ev.WireRecvBytes
		}
	}
	return calls, sent, recv
}

// tcpTotals sums the coordinator's per-connection TCP byte counters.
func tcpTotals(c *Coordinator) (sent, recv int64) {
	for _, ws := range c.WireStats() {
		sent += ws.Sent
		recv += ws.Recv
	}
	return sent, recv
}

// checkBatchRPCs asserts what every fault-free batch query must leave
// behind: rpc events for the rule broadcast and the reduces and no
// other method — the coordinator maps and merges itself — whose frame
// sizes sum to precisely the TCP bytes moved since (sentBefore,
// recvBefore); and a report ledger that says the same per method.
func checkBatchRPCs(t *testing.T, c *Coordinator, rep *Report, sentBefore, recvBefore int64) map[string]int {
	t.Helper()
	calls, sent, recv := rpcTotals(c)
	for _, m := range []string{"Worker.LoadRule", "Worker.ReduceGroup"} {
		if calls[m] == 0 {
			t.Errorf("no rpc events for %s (got %v)", m, calls)
		}
	}
	if len(calls) != 2 {
		t.Errorf("rpc events for methods %v, want LoadRule and ReduceGroup only", calls)
	}
	tcpSent, tcpRecv := tcpTotals(c)
	if want := tcpSent - sentBefore; sent != want {
		t.Errorf("rpc events sum sent=%d, TCP counters measured %d", sent, want)
	}
	if want := tcpRecv - recvBefore; recv != want {
		t.Errorf("rpc events sum recv=%d, TCP counters measured %d", recv, want)
	}
	var ledSent, ledRecv int64
	for _, ln := range rep.Ledger {
		if ln.Calls != calls[ln.Method] {
			t.Errorf("ledger counts %d %s calls, the events %d", ln.Calls, ln.Method, calls[ln.Method])
		}
		ledSent += ln.ReqBytes
		ledRecv += ln.RespBytes
	}
	if len(rep.Ledger) != 2 || rep.Ledger[0].Method != "Worker.LoadRule" || rep.Ledger[1].Method != "Worker.ReduceGroup" {
		t.Errorf("ledger %+v, want LoadRule and ReduceGroup lines only", rep.Ledger)
	}
	if ledSent != tcpSent-sentBefore || ledRecv != tcpRecv-recvBefore {
		t.Errorf("ledger sums sent=%d recv=%d, TCP counters measured %d/%d",
			ledSent, ledRecv, tcpSent-sentBefore, tcpRecv-recvBefore)
	}
	return calls
}

// TestRPCEventBytesMatchTCP pins the exact-accounting contract of the
// framed transport: with one worker and no faults (so no retries,
// hedges, or abandoned legs), the per-RPC events' frame sizes, and the
// report's per-method ledger, must sum to precisely the TCP byte deltas
// the connection counters measured — not an estimate, the same bytes
// counted independently.
func TestRPCEventBytesMatchTCP(t *testing.T) {
	ws, err := StartWorker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ws.Close() })
	cfg := DefaultCoordinatorConfig()
	cfg.M = 8
	cfg.SampleRatio = 0.05
	cfg.ChunkSize = 500
	coord, err := NewCoordinator(cfg, []string{ws.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	sentBefore, recvBefore := tcpTotals(coord)
	ds := gen.Synthetic(gen.Independent, 3000, 3, 7)
	_, rep, err := coord.Skyline(context.Background(), ds)
	if err != nil {
		t.Fatal(err)
	}
	checkBatchRPCs(t, coord, rep, sentBefore, recvBefore)
}

// TestClusterWireBytesRoutedVsBroadcast measures the wire traffic of
// partition-aware routing against the broadcast-to-all baseline on the
// `large` bench config (50000 points, matching skybench): one range
// query per shard count, routed (only overlapping shards contacted)
// vs broadcast (every shard contacted, filtering locally). Both must
// return the exact filtered skyline; routing must move fewer bytes.
// The logged table is the source of the EXPERIMENTS.md numbers.
func TestClusterWireBytesRoutedVsBroadcast(t *testing.T) {
	if testing.Short() {
		t.Skip("50k-point measurement; skipped in -short")
	}
	const n = 50000
	ds := gen.Synthetic(gen.AntiCorrelated, n, 4, 77)
	for _, numShards := range []int{4, 8} {
		g0, _ := startGroup(t, 2)
		g1, _ := startGroup(t, 2)
		cfg := testClusterConfig(4)
		cfg.Shards = numShards
		c, err := NewCluster(context.Background(), cfg, [][]string{g0, g1})
		if err != nil {
			t.Fatal(err)
		}
		insertBatches(t, c, ds.Points, 4096)

		// Query one shard's exact range: the partition-aware router
		// contacts 1 of numShards shards.
		m := c.Map()
		lo, hi := zorder.ZAddr(m.Cuts[0]), zorder.ZAddr(m.Cuts[1])
		want := rangeOracle(t, cfg, ds.Points, zorder.Range{Lo: lo, Hi: hi})

		rGot, rRep, err := c.SkylineRange(context.Background(), lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		bGot, bRep, err := c.SkylineRangeBroadcast(context.Background(), lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		sameSet(t, rGot, want, "routed")
		sameSet(t, bGot, want, "broadcast")
		if bRep.WireSentBytes+bRep.WireRecvBytes <= rRep.WireSentBytes+rRep.WireRecvBytes {
			t.Errorf("shards=%d: broadcast moved %d bytes, routed %d: routing should move fewer",
				numShards, bRep.WireSentBytes+bRep.WireRecvBytes, rRep.WireSentBytes+rRep.WireRecvBytes)
		}
		t.Logf("shards=%d routed=%d/%d: routed sent=%d recv=%d total=%d | broadcast sent=%d recv=%d total=%d | ratio=%.1fx",
			numShards, rRep.Routed, rRep.Shards,
			rRep.WireSentBytes, rRep.WireRecvBytes, rRep.WireSentBytes+rRep.WireRecvBytes,
			bRep.WireSentBytes, bRep.WireRecvBytes, bRep.WireSentBytes+bRep.WireRecvBytes,
			float64(bRep.WireSentBytes+bRep.WireRecvBytes)/float64(rRep.WireSentBytes+rRep.WireRecvBytes))
		c.Close()
	}
}
