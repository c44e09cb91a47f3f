package dist

import (
	"context"
	"errors"
	"testing"

	"zskyline/internal/gen"
	"zskyline/internal/obs"
	"zskyline/internal/plan"
	"zskyline/internal/point"
	"zskyline/internal/zorder"
)

// callWant is one rpc event a contract case expects: the role of the
// worker it names ("" when no worker served), its attempt count, and
// whether it failed.
type callWant struct {
	worker   string
	attempts int
	failed   bool
}

// errShardMovedClass stands for "any error classify sorts as
// shard-moved" in the contract table.
var errShardMovedClass = errors.New("shard-moved class")

// TestCallContract pins what every kind of worker RPC does under each
// fault: which worker serves, how many attempts its rpc event records,
// how far the method's zsky_dist_retries_total moves, and the error
// the caller sees.
//
// Workers are A and B (a reduce's two workers, or shard 0's replicas,
// A first); resurrection is off, so a failed worker stays dead. A
// restart that keeps the connection is modelled by emptying the rule
// cache, and a replica that lost the shard by dropping it. Cells a kind
// cannot reach are absent: writes and pulls never name a rule, and only
// shard reads and pulls can answer "not resident".
func TestCallContract(t *testing.T) {
	cases := []struct {
		kind, fault string
		events      []callWant
		retries     float64
		err         error
	}{
		{"reduce", "sever", []callWant{{"B", 2, false}}, 1, nil},
		{"reduce", "rule-missing", []callWant{{"B", 2, false}}, 1, nil},
		{"reduce", "all-dead", []callWant{{"", 2, true}}, 2, ErrClusterDown},
		{"read", "sever", []callWant{{"B", 2, false}}, 1, nil},
		{"read", "rule-missing", []callWant{{"B", 2, false}}, 1, nil},
		// The replica answers shard-moved at once, every hop re-reads the
		// map and lands on it again, and the query gives up after the last.
		{"read", "not-resident", []callWant{{"A", 1, true}, {"A", 1, true},
			{"A", 1, true}, {"A", 1, true}, {"A", 1, true}}, 0, errShardMovedClass},
		{"read", "all-dead", []callWant{{"", 2, true}}, 2, ErrShardDown},
		// A pinned write never fails over: A's write spends its budget on
		// A, A goes stale, and B's copy carries the insert.
		{"write", "sever", []callWant{{"A", 4, true}, {"B", 1, false}}, 3, nil},
		{"write", "all-dead", []callWant{{"A", 4, true}, {"B", 4, true}}, 6, ErrShardDown},
		// A pull is one call per cursor that retries inside the sources
		// like a read; a source that answers shard-moved is dropped and the
		// cursor pulled again, in a new call, from the next.
		{"pull", "sever", []callWant{{"B", 2, false}}, 1, nil},
		{"pull", "not-resident", []callWant{{"A", 1, true}, {"B", 1, false}}, 0, nil},
		{"pull", "all-dead", []callWant{{"", 2, true}}, 2, ErrShardDown},
	}
	for _, tc := range cases {
		t.Run(tc.kind+"/"+tc.fault, func(t *testing.T) {
			method, roles, reg, events, err := runContractCase(t, tc.kind, tc.fault)
			if tc.err == errShardMovedClass {
				if err == nil || classify(err) != classShardMoved {
					t.Errorf("error %v, want a shard-moved verdict", err)
				}
			} else if (tc.err == nil) != (err == nil) || (tc.err != nil && !errors.Is(err, tc.err)) {
				t.Errorf("error %v, want %v", err, tc.err)
			}
			var prom writerBuf
			if err := reg.WritePrometheus(&prom); err != nil {
				t.Fatal(err)
			}
			if got := sumLabeled(string(prom), "zsky_dist_retries_total", `method="`+method+`"`); got != tc.retries {
				t.Errorf("zsky_dist_retries_total{method=%q} moved by %v, want %v", method, got, tc.retries)
			}
			var got []callWant
			for _, ev := range events.Snapshot() {
				if ev.Kind == "rpc" && ev.Route == method {
					got = append(got, callWant{worker: roles[ev.Worker], attempts: ev.Attempts, failed: ev.Error != ""})
				}
			}
			if len(got) != len(tc.events) {
				t.Fatalf("%s events %+v, want %+v", method, got, tc.events)
			}
			for i := range got {
				if got[i] != tc.events[i] {
					t.Errorf("%s event %d = %+v, want %+v", method, i, got[i], tc.events[i])
				}
			}
		})
	}
}

// runContractCase builds a fresh coordinator or cluster for one kind,
// injects the fault, and issues the call. It returns the method under
// test, the worker address to role map, and the caller's error.
func runContractCase(t *testing.T, kind, fault string) (string, map[string]string, *obs.Registry, *obs.EventLog, error) {
	t.Helper()
	ctx := context.Background()
	method := map[string]string{"reduce": "Worker.ReduceGroup", "read": "Worker.ShardSkyline",
		"write": "Worker.StoreShard", "pull": "Worker.PullShard"}[kind]
	// The first call of the method on A severs. A cluster's StoreShard
	// count starts with NewCluster's residency seed.
	var faults *FaultPlan
	if fault == "sever" {
		nth := 1
		if kind == "write" {
			nth = 2
		}
		faults = NewFaultPlan(FaultRule{Method: method, Nth: nth, Action: FaultSever})
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
	roles := map[string]string{wa.Addr(): "A", wb.Addr(): "B"}
	inject := func() {
		switch fault {
		case "rule-missing":
			wa.worker.mu.Lock()
			wa.worker.rules = map[uint64]*plan.Rule{}
			wa.worker.mu.Unlock()
		case "not-resident":
			if err := wa.worker.DropShard(DropShardArgs{ShardID: 0, MapVersion: 1}, &DropShardReply{}); err != nil {
				t.Fatal(err)
			}
		case "all-dead":
			wa.Close()
			wb.Close()
		}
	}
	// Set-up runs on the default registry and event log; fresh ones are
	// swapped in just before the call, so they hold only what it caused.
	reg, events := obs.NewRegistry(), obs.NewEventLog(0)

	if kind == "reduce" {
		cfg := ftConfig()
		cfg.RedialInterval = -1
		coord, err := NewCoordinator(cfg, []string{wa.Addr(), wb.Addr()})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { coord.Close() })
		rd := plan.RuleData{Dims: 3, Bits: 12, Mins: []float64{0, 0, 0}, Maxs: []float64{1, 1, 1},
			Local: plan.SB, Merge: plan.MergeZM}
		rule, err := plan.FromData(&rd)
		if err != nil {
			t.Fatal(err)
		}
		blk := point.BlockOf(3, gen.Synthetic(gen.Independent, 200, 3, 1).Points)
		g := plan.Group{Block: blk, ZCol: rule.Encoder().EncodeBlock(zorder.ZCol{}, blk)}
		ex := &rpcExec{LocalExec: coord.exec, c: coord}
		if err := ex.Broadcast(ctx, rule); err != nil {
			t.Fatal(err)
		}
		inject()
		coord.reg, coord.events = reg, events
		_, err = ex.RunReduces(ctx, rule, []plan.Group{g}, nil)
		return method, roles, reg, events, err
	}

	wc, err := StartWorker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { wc.Close() })
	cfg := testClusterConfig(3)
	cfg.RedialInterval = -1
	groups := [][]string{{wa.Addr(), wb.Addr()}}
	if kind == "pull" {
		groups = append(groups, []string{wc.Addr()})
	}
	c, err := NewCluster(ctx, cfg, groups)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	pts := gen.Synthetic(gen.Independent, 100, 3, 2).Points
	if kind != "write" {
		if err := c.Insert(ctx, pts); err != nil {
			t.Fatal(err)
		}
	}
	inject()
	c.inner.reg, c.inner.events = reg, events
	switch kind {
	case "read":
		_, _, err = c.Skyline(ctx)
	case "write":
		err = c.Insert(ctx, pts)
	case "pull":
		_, err = c.Handoff(ctx, 0, 1)
	}
	return method, roles, reg, events, err
}
