package dist

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"testing"
	"time"

	"zskyline/internal/gen"
	"zskyline/internal/obs"
	"zskyline/internal/seq"
	"zskyline/internal/transport"
)

// ftConfig is the fast-recovery coordinator config the fault suite
// uses: tight redial so resurrection happens within a test run, short
// backoff-visible timeouts, everything else default.
func ftConfig() CoordinatorConfig {
	cfg := DefaultCoordinatorConfig()
	cfg.M = 16
	cfg.SampleRatio = 0.05
	cfg.ChunkSize = 500
	cfg.RedialInterval = 10 * time.Millisecond
	return cfg
}

// counterTotal sums a counter family across label sets by scraping the
// registry's Prometheus export — the same view an operator gets.
func counterTotal(t *testing.T, reg *obs.Registry, name string) float64 {
	t.Helper()
	var sb writerBuf
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	return sumMetric(string(sb), name)
}

type writerBuf []byte

func (w *writerBuf) Write(p []byte) (int, error) {
	*w = append(*w, p...)
	return len(p), nil
}

// sumMetric sums every sample of family name in a Prometheus export.
func sumMetric(text, name string) float64 {
	return sumLabeled(text, name, "")
}

// sumLabeled sums samples of family name whose line contains sub
// (empty sub matches all label sets).
func sumLabeled(text, name, sub string) float64 {
	var total float64
	for _, line := range splitLines(text) {
		if len(line) == 0 || line[0] == '#' || !hasMetricName(line, name) {
			continue
		}
		if sub != "" && !strings.Contains(line, sub) {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			total += v
		}
	}
	return total
}

func splitLines(s string) []string {
	return strings.Split(strings.TrimRight(s, "\n"), "\n")
}

func hasMetricName(line, name string) bool {
	if !strings.HasPrefix(line, name) {
		return false
	}
	rest := line[len(name):]
	return len(rest) > 0 && (rest[0] == '{' || rest[0] == ' ')
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestClassify(t *testing.T) {
	cases := []struct {
		err  error
		want errClass
	}{
		{transport.ErrShutdown, classRetryable},
		{io.EOF, classRetryable},
		{io.ErrUnexpectedEOF, classRetryable},
		{errAttemptTimeout, classRetryable},
		{errNotConnected, classRetryable},
		// Worker verdicts classify by status code, never by message.
		{transport.ServerError{Status: transport.StatusRuleMissing, Msg: "dist: rule 5 not loaded on 127.0.0.1:1"}, classRuleMissing},
		{transport.ServerError{Status: transport.StatusShardMoved, Msg: "dist: shard 2 not resident on 127.0.0.1:1"}, classShardMoved},
		{transport.ServerError{Msg: "dist: rule 5 not loaded on 127.0.0.1:1"}, classFatal},
		{transport.ServerError{Msg: "dist: stale shard map v1 on 127.0.0.1:1 (have v2)"}, classFatal},
		{transport.ServerError{Msg: "plan: dims mismatch"}, classFatal},
		{transport.ServerError{Msg: "transport: handler panicked on method 3: ragged row"}, classFatal},
		{fmt.Errorf("dist: Worker.ShardSkyline: attempts exhausted: %w",
			transport.ServerError{Status: transport.StatusShardMoved, Msg: "x"}), classShardMoved},
		{fmt.Errorf("dist: Worker.ShardSkyline: %w", ErrShardDown), classFatal},
		{errors.New("read tcp: connection reset by peer"), classRetryable},
	}
	for _, tc := range cases {
		if got := classify(tc.err); got != tc.want {
			t.Errorf("classify(%v) = %v, want %v", tc.err, got, tc.want)
		}
	}
}

func TestParseFaultPlan(t *testing.T) {
	p, err := ParseFaultPlan("Worker.ReduceGroup:1:delay:2s, Worker.LoadRule:2x3:sever,Worker.ReduceGroup:4:drop")
	if err != nil {
		t.Fatal(err)
	}
	if r := p.match("Worker.ReduceGroup"); r == nil || r.Action != FaultDelay || r.Delay != 2*time.Second {
		t.Errorf("reduce rule: %+v", r)
	}
	// LoadRule calls 2..4 sever, 1 and 5 pass.
	if r := p.match("Worker.LoadRule"); r != nil {
		t.Errorf("load call 1 matched %+v", r)
	}
	for i := 0; i < 3; i++ {
		if r := p.match("Worker.LoadRule"); r == nil || r.Action != FaultSever {
			t.Errorf("load call %d: %+v", i+2, r)
		}
	}
	if r := p.match("Worker.LoadRule"); r != nil {
		t.Errorf("load call 5 matched %+v", r)
	}
	if p.Injected() != 4 {
		t.Errorf("injected = %d, want 4", p.Injected())
	}
	for _, bad := range []string{"", "x", "m:0:drop", "m:1:delay", "m:1:boom", "m:1x0:drop"} {
		if _, err := ParseFaultPlan(bad); err == nil {
			t.Errorf("spec %q accepted", bad)
		}
	}
}

// A worker severed after its first successful reduce must be
// resurrected (with the rule re-broadcast) and serve later reduces,
// while the query stays exact.
func TestWorkerDiesMidReduceAndRecovers(t *testing.T) {
	// Worker 2 dies on its second reduce; workers 0 and 1 straggle on
	// every reduce, so the resurrected worker 2 demonstrably picks up
	// later ones. A reduce of this input takes well under a millisecond:
	// had workers 0 and 1 straggled only once, they could drain all the
	// groups before a loaded box redialled worker 2. Straggling on every
	// call, they need 100 ms per reduce — hundreds of milliseconds for the
	// groups worker 2 leaves — against its 10 ms redial.
	straggle := FaultRule{Method: "Worker.ReduceGroup", Nth: 1, Count: 1 << 30, Action: FaultDelay, Delay: 100 * time.Millisecond}
	slow, slow2 := NewFaultPlan(straggle), NewFaultPlan(straggle)
	dying := NewFaultPlan(FaultRule{Method: "Worker.ReduceGroup", Nth: 2, Action: FaultSever})
	var addrs []string
	var servers []*WorkerServer
	for _, p := range []*FaultPlan{slow, slow2, dying} {
		ws, err := StartWorkerWithOptions("127.0.0.1:0", WorkerOptions{Faults: p})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ws.Close() })
		servers = append(servers, ws)
		addrs = append(addrs, ws.Addr())
	}
	ds := gen.Synthetic(gen.AntiCorrelated, 8000, 4, 23)
	want := seq.SB(ds.Points, nil)

	coord, err := NewCoordinator(ftConfig(), addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	got, _, err := coord.Skyline(context.Background(), ds)
	if err != nil {
		t.Fatal(err)
	}
	sameSet(t, got, want, "skyline under sever")
	if dying.Injected() == 0 {
		t.Fatal("sever fault never fired; test exercised nothing")
	}
	reg := coord.Metrics()
	if n := counterTotal(t, reg, "zsky_dist_retries_total"); n < 1 {
		t.Errorf("retries = %v, want >= 1", n)
	}
	waitFor(t, 3*time.Second, "resurrection", func() bool {
		return counterTotal(t, reg, "zsky_dist_resurrections_total") >= 1
	})
	// The resurrected worker received the rule re-broadcast (its
	// LoadRule count exceeds the query's single broadcast)...
	var lr writerBuf
	if err := servers[2].Metrics().WritePrometheus(&lr); err != nil {
		t.Fatal(err)
	}
	if n := sumMetric(string(lr), "zsky_rpc_requests_total"); n < 2 {
		t.Errorf("resurrected worker served %v RPCs total, want >= 2 (LoadRule re-broadcast + later tasks)", n)
	}
	// ...and served later work after dying: the severed call never
	// counted, so a second served reduce is a post-resurrection one.
	if reduces := sumLabeled(string(lr), "zsky_rpc_requests_total", `method="ReduceGroup"`); reduces < 2 {
		t.Errorf("resurrected worker served reduces=%v; expected post-resurrection work", reduces)
	}
}

// Every worker flaps at once mid-reduce: the cluster must ride out the
// window where nobody is live (resurrection readmits the workers and
// re-broadcasts the rule) and still answer exactly.
func TestAllWorkersFlap(t *testing.T) {
	var addrs []string
	var plans []*FaultPlan
	for i := 0; i < 2; i++ {
		p := NewFaultPlan(FaultRule{Method: "Worker.ReduceGroup", Nth: 2, Action: FaultSever})
		ws, err := StartWorkerWithOptions("127.0.0.1:0", WorkerOptions{Faults: p})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ws.Close() })
		plans = append(plans, p)
		addrs = append(addrs, ws.Addr())
	}
	ds := gen.Synthetic(gen.Independent, 6000, 4, 9)
	want := seq.SB(ds.Points, nil)

	coord, err := NewCoordinator(ftConfig(), addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	got, _, err := coord.Skyline(context.Background(), ds)
	if err != nil {
		t.Fatalf("query across full flap: %v", err)
	}
	sameSet(t, got, want, "skyline across flap")
	for i, p := range plans {
		if p.Injected() == 0 {
			t.Errorf("worker %d never severed; flap not exercised", i)
		}
	}
	if n := counterTotal(t, coord.Metrics(), "zsky_dist_resurrections_total"); n < 2 {
		t.Errorf("resurrections = %v, want >= 2", n)
	}
}

// A dropped response (the worker computes but the reply vanishes)
// must be rescued by the per-attempt deadline and retried elsewhere.
func TestDropRescuedByDeadline(t *testing.T) {
	p := NewFaultPlan(FaultRule{Method: "Worker.ReduceGroup", Nth: 1, Action: FaultDrop})
	ws, err := StartWorkerWithOptions("127.0.0.1:0", WorkerOptions{Faults: p})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ws.Close() })
	ws2, err := StartWorker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ws2.Close() })

	ds := gen.Synthetic(gen.AntiCorrelated, 4000, 3, 3)
	want := seq.SB(ds.Points, nil)
	cfg := ftConfig()
	cfg.RPCTimeout = 150 * time.Millisecond
	coord, err := NewCoordinator(cfg, []string{ws.Addr(), ws2.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	start := time.Now()
	got, _, err := coord.Skyline(context.Background(), ds)
	if err != nil {
		t.Fatal(err)
	}
	sameSet(t, got, want, "skyline with dropped reply")
	if p.Injected() == 0 {
		t.Fatal("drop fault never fired")
	}
	if counterTotal(t, coord.Metrics(), "zsky_dist_retries_total") < 1 {
		t.Error("no retry recorded for the dropped reply")
	}
	if el := time.Since(start); el > 10*time.Second {
		t.Errorf("query took %v; deadline did not rescue the hung call", el)
	}
}

// Hedging must beat an injected straggler: with worker 0's first
// reduce — and every call queued behind it on that connection —
// delayed 2s, the hedged duplicates on the other worker answer and
// the query finishes far sooner.
func TestHedgeBeatsStraggler(t *testing.T) {
	p := NewFaultPlan(FaultRule{Method: "Worker.ReduceGroup", Nth: 1, Action: FaultDelay, Delay: 2 * time.Second})
	ws, err := StartWorkerWithOptions("127.0.0.1:0", WorkerOptions{Faults: p})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ws.Close() })
	ws2, err := StartWorker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ws2.Close() })

	ds := gen.Synthetic(gen.AntiCorrelated, 5000, 4, 13)
	want := seq.SB(ds.Points, nil)
	cfg := ftConfig()
	cfg.Hedge = 50 * time.Millisecond
	// The straggler (worker 0) is first in the list, so the first
	// reduce is handed to it.
	coord, err := NewCoordinator(cfg, []string{ws.Addr(), ws2.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	start := time.Now()
	got, _, err := coord.Skyline(context.Background(), ds)
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	sameSet(t, got, want, "hedged skyline")
	if p.Injected() == 0 {
		t.Fatal("delay fault never fired")
	}
	if n := counterTotal(t, coord.Metrics(), "zsky_dist_hedge_wins_total"); n < 1 {
		t.Errorf("hedge wins = %v, want >= 1", n)
	}
	if elapsed > 1500*time.Millisecond {
		t.Errorf("query took %v; hedge did not beat the 2s straggler", elapsed)
	}
}

// A worker process replaced wholesale (restart at the same address,
// empty rule cache) must be re-dialed, re-sent the current rule, and
// readmitted.
func TestRuleRebroadcastAfterRestart(t *testing.T) {
	ws, err := StartWorker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ws.Addr()
	cfg := ftConfig()
	coord, err := NewCoordinator(cfg, []string{addr})
	if err != nil {
		ws.Close()
		t.Fatal(err)
	}
	defer coord.Close()
	ds := gen.Synthetic(gen.Independent, 2000, 3, 5)
	want := seq.SB(ds.Points, nil)
	got, _, err := coord.Skyline(context.Background(), ds)
	if err != nil {
		t.Fatal(err)
	}
	sameSet(t, got, want, "before restart")

	// Replace the process: the new worker has an empty rule cache.
	ws.Close()
	var ws2 *WorkerServer
	waitFor(t, 5*time.Second, "rebind of worker address", func() bool {
		w, err := StartWorker(addr)
		if err != nil {
			return false
		}
		ws2 = w
		return true
	})
	t.Cleanup(func() { ws2.Close() })

	// Death is detected passively: the next query's first RPC hits the
	// dead connection, suspects the worker, and the resurrector
	// re-dials the fresh process and re-broadcasts the rule before the
	// retry lands.
	got, _, err = coord.Skyline(context.Background(), ds)
	if err != nil {
		t.Fatal(err)
	}
	sameSet(t, got, want, "after restart")
	if n := counterTotal(t, coord.Metrics(), "zsky_dist_resurrections_total"); n < 1 {
		t.Errorf("resurrections = %v, want >= 1", n)
	}
	// Resurrection re-broadcast the current rule into the fresh cache.
	var buf writerBuf
	if err := ws2.Metrics().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if n := sumLabeled(string(buf), "zsky_rpc_requests_total", `method="LoadRule"`); n < 1 {
		t.Errorf("restarted worker LoadRule count = %v, want >= 1 (resurrection re-broadcast)", n)
	}
}

// With every worker gone for good and resurrection disabled, queries
// must fail fast with the typed ErrClusterDown.
func TestErrClusterDownTyped(t *testing.T) {
	ws, err := StartWorker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cfg := ftConfig()
	cfg.RedialInterval = -1 // resurrection off: suspect collapses to dead
	cfg.Retries = -1
	coord, err := NewCoordinator(cfg, []string{ws.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	ws.Close()
	ds := gen.Synthetic(gen.Independent, 500, 2, 1)
	start := time.Now()
	_, _, err = coord.Skyline(context.Background(), ds)
	if err == nil {
		t.Fatal("query succeeded with no live workers")
	}
	if !errors.Is(err, ErrClusterDown) {
		t.Errorf("error %v is not ErrClusterDown", err)
	}
	if el := time.Since(start); el > 5*time.Second {
		t.Errorf("cluster-down detection took %v", el)
	}
}

// Fatal worker verdicts must not be retried into different answers:
// an unknown-rule... is retryable-by-rebroadcast, but a genuinely
// fatal server error (unregistered method) surfaces immediately.
func TestFatalErrorNotRetried(t *testing.T) {
	ws, err := StartWorker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ws.Close() })
	cfg := ftConfig()
	coord, err := NewCoordinator(cfg, []string{ws.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	var reply PingReply
	_, err = coord.call(context.Background(), "Worker.NoSuchMethod",
		PingArgs{}, &reply, callOpts{})
	if err == nil {
		t.Fatal("unknown method succeeded")
	}
	if n := counterTotal(t, coord.Metrics(), "zsky_dist_retries_total"); n != 0 {
		t.Errorf("fatal error was retried %v times", n)
	}
	// A coordinator from before the map and merge RPCs were retired
	// still sends ids 3 and 5; the worker answers with the same typed,
	// fatal verdict.
	for _, id := range []uint16{3, 5} {
		if _, err := ws.worker.ServeFrame(id, nil); !errors.Is(err, errUnknownMethod) || classify(err) != classFatal {
			t.Errorf("retired method id %d: err = %v, want fatal errUnknownMethod", id, err)
		}
	}
}
