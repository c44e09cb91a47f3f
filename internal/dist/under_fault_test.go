package dist

import (
	"context"
	"testing"
	"time"

	"zskyline/internal/dominance"
	"zskyline/internal/gen"
	"zskyline/internal/seq"
)

// Per provider, a distributed run under injected faults (a severed
// reduce plus a straggling one, exercising retry, resurrection, and
// the rule re-broadcast that carries the dominance descriptor) must
// return exactly the sequential reference result.
func TestProvidersUnderFaults(t *testing.T) {
	const d = 4
	w1 := []float64{1, 1, 1, 1}
	w2 := []float64{3, 1, 1, 1}
	descs := []dominance.Descriptor{
		{},
		{Kind: dominance.KindFlex, Weights: [][]float64{w1, w2}},
		{Kind: dominance.KindKDom, K: 3},
		{Kind: dominance.KindRobust, Rho: 0.05},
	}
	ds := gen.Synthetic(gen.AntiCorrelated, 6000, d, 29)

	for _, desc := range descs {
		prov, err := desc.Provider()
		if err != nil {
			t.Fatal(err)
		}
		t.Run(prov.Name(), func(t *testing.T) {
			// Nth 1, not 2: acquire hands the first reduce to the lowest idle
			// worker, so this one always serves at least one; whether it
			// gets a second depends on how fast the other two drain the rest.
			dying := NewFaultPlan(FaultRule{Method: "Worker.ReduceGroup", Nth: 1, Action: FaultSever})
			slow := NewFaultPlan(FaultRule{Method: "Worker.ReduceGroup", Nth: 1, Action: FaultDelay, Delay: 100 * time.Millisecond})
			var addrs []string
			for _, p := range []*FaultPlan{dying, slow, nil} {
				ws, err := StartWorkerWithFaults("127.0.0.1:0", p)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { ws.Close() })
				addrs = append(addrs, ws.Addr())
			}
			cfg := ftConfig()
			cfg.Dominance = desc
			coord, err := NewCoordinator(cfg, addrs)
			if err != nil {
				t.Fatal(err)
			}
			defer coord.Close()

			got, _, err := coord.Skyline(context.Background(), ds)
			if err != nil {
				t.Fatal(err)
			}
			want := seq.SkylineUnder(prov, ds.Points, nil)
			sameSet(t, got, want, "skyline under faults")
			if dying.Injected() == 0 {
				t.Fatal("sever fault never fired; test exercised nothing")
			}
		})
	}
}
