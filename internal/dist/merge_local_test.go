package dist

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"zskyline/internal/gen"
	"zskyline/internal/obs"
	"zskyline/internal/seq"
)

// cancelAtMerge is a context that cancels itself the first time it is
// asked for its state after the run's trace shows a merge/round span —
// that is, at the first cancellation check inside phase 3.
type cancelAtMerge struct {
	context.Context
	cancel context.CancelFunc
	root   *obs.Span
	at     atomic.Int64 // UnixNano of the cancel, 0 before it
}

func (c *cancelAtMerge) Err() error {
	if c.at.Load() == 0 {
		for _, sp := range c.root.Children() {
			if strings.HasPrefix(sp.Name(), "merge/round-") && c.at.CompareAndSwap(0, time.Now().UnixNano()) {
				c.cancel()
			}
		}
	}
	return c.Context.Err()
}

// TestCoordinatorMergesLocally pins where phase 3 of a batch query
// runs: on the coordinator, under the one schedule there is (one
// probed ZB-tree on its own pool). Per dominance relation, in memory and
// streamed from a file: the result is the sequential oracle's and the
// workers were asked for the rule and the reduces only; a
// cluster that severs every connection on anything it is asked after
// the last reduce cannot fail the query; and a context cancelled inside
// phase 3 ends the query with its error at once.
func TestCoordinatorMergesLocally(t *testing.T) {
	ds := gen.Synthetic(gen.AntiCorrelated, 6000, 4, 37)
	paths := batchQueries(t, ds)
	for _, desc := range batchDescriptors {
		prov, err := desc.Provider()
		if err != nil {
			t.Fatal(err)
		}
		want := seq.SkylineUnder(prov, ds.Points, nil)
		for name, run := range paths {
			t.Run(prov.Name()+"/"+name, func(t *testing.T) {
				cfg := ftConfig()
				cfg.Dominance = desc
				start := func(p *FaultPlan) []string {
					addrs := make([]string, 2)
					for i := range addrs {
						ws, err := StartWorkerWithFaults("127.0.0.1:0", p)
						if err != nil {
							t.Fatal(err)
						}
						t.Cleanup(func() { ws.Close() })
						addrs[i] = ws.Addr()
					}
					return addrs
				}
				connect := func(addrs []string) *Coordinator {
					c, err := NewCoordinator(cfg, addrs)
					if err != nil {
						t.Fatal(err)
					}
					t.Cleanup(func() { c.Close() })
					return c
				}

				// Fault-free: exact, two RPC methods, bytes accounted for.
				healthy := start(nil)
				coord := connect(healthy)
				sent, recv := tcpTotals(coord)
				got, rep, err := run(context.Background(), coord)
				if err != nil {
					t.Fatal(err)
				}
				sameSet(t, got, want, "fault-free")
				if rep.Groups < 3 {
					t.Fatalf("%d groups: the one-tree merge was not exercised", rep.Groups)
				}
				calls := checkBatchRPCs(t, coord, rep, sent, recv)

				// The same query against workers sharing one plan that severs
				// whatever arrives beyond that query's own phase-1/2 calls,
				// whichever worker it lands on — retired merge id included.
				calls["Worker.Ping"] = len(healthy) // the startup probes
				var rules []FaultRule
				for id := mPing; id <= mShardStats; id++ {
					m := methodName(id)
					rules = append(rules, FaultRule{Method: m, Nth: calls[m] + 1, Count: 1 << 30, Action: FaultSever})
				}
				hostile := NewFaultPlan(rules...)
				got, _, err = run(context.Background(), connect(start(hostile)))
				if err != nil {
					t.Fatalf("query failed once the workers stopped answering after the last reduce: %v", err)
				}
				sameSet(t, got, want, "workers gone after the last reduce")
				if n := hostile.Injected(); n != 0 {
					t.Errorf("%d calls reached a worker after the last reduce, want none", n)
				}

				// Cancelled inside phase 3.
				tr := obs.NewTrace("query")
				inner, cancel := context.WithCancel(context.Background())
				defer cancel()
				ctx := &cancelAtMerge{Context: inner, cancel: cancel, root: tr.Root()}
				got, _, err = run(obs.ContextWithTrace(ctx, tr), connect(healthy))
				returned := time.Now()
				at := ctx.at.Load()
				if at == 0 {
					t.Fatal("the query never checked its context inside phase 3")
				}
				if !errors.Is(err, context.Canceled) || got != nil {
					t.Fatalf("cancelled in phase 3: %d rows, err = %v; want context.Canceled", len(got), err)
				}
				if late := returned.Sub(time.Unix(0, at)); late > time.Second {
					t.Errorf("query returned %v after the cancel", late)
				}
			})
		}
	}
}
