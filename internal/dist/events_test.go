package dist

import (
	"context"
	"strings"
	"testing"

	"zskyline/internal/gen"
	"zskyline/internal/obs"
)

// TestQueryAndRPCEvents runs one distributed query and checks the
// event log holds exactly one "query" record plus the "rpc" records it
// caused, all joined on the query's request ID.
func TestQueryAndRPCEvents(t *testing.T) {
	addrs := startCluster(t, 2)
	cfg := DefaultCoordinatorConfig()
	cfg.M = 4
	cfg.SampleRatio = 0.05
	coord, err := NewCoordinator(cfg, addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	ds := gen.Synthetic(gen.AntiCorrelated, 2000, 3, 11)
	ctx := obs.ContextWithRequestID(context.Background(), "test-query-1")
	sky, _, err := coord.Skyline(ctx, ds)
	if err != nil {
		t.Fatal(err)
	}

	events := coord.Events().Snapshot()
	var query *obs.Event
	rpcs := 0
	methods := map[string]int{}
	for i := range events {
		ev := events[i]
		switch ev.Kind {
		case "query":
			if ev.ID != "test-query-1" {
				t.Errorf("query event id = %q, want test-query-1", ev.ID)
			}
			if query != nil {
				t.Error("more than one query event")
			}
			query = &events[i]
		case "rpc":
			if ev.Parent != "test-query-1" {
				t.Errorf("rpc event %s parent = %q, want test-query-1", ev.Route, ev.Parent)
			}
			if ev.Worker == "" || ev.Attempts < 1 {
				t.Errorf("rpc event missing worker/attempts: %+v", ev)
			}
			methods[ev.Route]++
			rpcs++
		default:
			t.Errorf("unexpected event kind %q", ev.Kind)
		}
	}
	if query == nil {
		t.Fatal("no query event recorded")
	}
	if query.Results != len(sky) {
		t.Errorf("query event results = %d, want %d", query.Results, len(sky))
	}
	if query.Dominance != "pareto" || !strings.HasPrefix(query.Query, "skyline:n=2000") {
		t.Errorf("query event shape = %q dominance = %q", query.Query, query.Dominance)
	}
	for _, phase := range []string{"preprocess", "phase2", "phase3"} {
		if _, ok := query.Phases[phase]; !ok {
			t.Errorf("query event missing phase %s: %v", phase, query.Phases)
		}
	}
	if query.WireSentBytes <= 0 || query.WireRecvBytes <= 0 {
		t.Errorf("query event wire bytes = %d/%d, want > 0",
			query.WireSentBytes, query.WireRecvBytes)
	}
	if rpcs == 0 {
		t.Fatal("no rpc events recorded")
	}
	// Every remote phase's RPC method shows up — the rule broadcast and
	// the reduces — and nothing else: the coordinator maps and merges.
	for _, m := range []string{"Worker.LoadRule", "Worker.ReduceGroup"} {
		if methods[m] == 0 {
			t.Errorf("no rpc events for %s (got %v)", m, methods)
		}
	}
	if len(methods) != 2 {
		t.Errorf("rpc events for methods %v, want the two above only", methods)
	}
}

// TestEventsWithoutRequestID checks a bare coordinator run mints its
// own request ID so rpc events still join to the query.
func TestEventsWithoutRequestID(t *testing.T) {
	addrs := startCluster(t, 1)
	cfg := DefaultCoordinatorConfig()
	cfg.M = 2
	cfg.SampleRatio = 0.05
	log := obs.NewEventLog(64)
	cfg.Events = log
	coord, err := NewCoordinator(cfg, addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	if coord.Events() != log {
		t.Fatal("config-supplied event log not used")
	}

	ds := gen.Synthetic(gen.Independent, 500, 2, 3)
	if _, _, err := coord.Skyline(context.Background(), ds); err != nil {
		t.Fatal(err)
	}
	var queryID string
	for _, ev := range log.Snapshot() {
		if ev.Kind == "query" {
			queryID = ev.ID
		}
	}
	if queryID == "" {
		t.Fatal("no query event / generated request ID")
	}
	for _, ev := range log.Snapshot() {
		if ev.Kind == "rpc" && ev.Parent != queryID {
			t.Errorf("rpc event %s parent = %q, want %q", ev.Route, ev.Parent, queryID)
		}
	}
}

// TestRPCEventErrorsForced kills the cluster's only worker and checks
// the failed query run leaves error-classed events that bypassed
// sampling.
func TestRPCEventErrorsForced(t *testing.T) {
	ws, err := StartWorker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultCoordinatorConfig()
	cfg.M = 2
	cfg.SampleRatio = 0.05
	cfg.Retries = 1
	cfg.RedialInterval = -1 // no resurrection: first failure is final
	coord, err := NewCoordinator(cfg, []string{ws.Addr()})
	if err != nil {
		ws.Close()
		t.Fatal(err)
	}
	defer coord.Close()
	// Sample hard so only forced (error) records can land.
	coord.Events().SetSampleEvery(1 << 20)
	ws.Close()

	ds := gen.Synthetic(gen.Independent, 500, 2, 3)
	if _, _, err := coord.Skyline(context.Background(), ds); err == nil {
		t.Fatal("skyline succeeded against a dead cluster")
	}
	events := coord.Events().Snapshot()
	if len(events) == 0 {
		t.Fatal("no events recorded for the failed run")
	}
	for _, ev := range events {
		if ev.Error == "" {
			t.Errorf("sampled-away event recorded without error: %+v", ev)
		}
	}
	var sawQuery bool
	for _, ev := range events {
		if ev.Kind == "query" && ev.Error != "" {
			sawQuery = true
		}
	}
	if !sawQuery {
		t.Error("failed run left no error-classed query event")
	}
}
