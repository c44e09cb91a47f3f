package dist

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"zskyline/internal/codec"
	"zskyline/internal/gen"
	"zskyline/internal/plan"
	"zskyline/internal/point"
	"zskyline/internal/seq"
)

// startCluster spins up n workers on ephemeral ports and returns their
// addresses plus a cleanup func.
func startCluster(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		ws, err := StartWorker("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ws.Close() })
		addrs[i] = ws.Addr()
	}
	return addrs
}

func sameSet(t *testing.T, got, want []point.Point, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %d points, want %d", label, len(got), len(want))
	}
	g := append([]point.Point(nil), got...)
	w := append([]point.Point(nil), want...)
	point.SortLexicographic(g)
	point.SortLexicographic(w)
	for i := range g {
		if !g[i].Equal(w[i]) {
			t.Fatalf("%s: [%d] = %v, want %v", label, i, g[i], w[i])
		}
	}
}

func TestCoordinatorValidation(t *testing.T) {
	if _, err := NewCoordinator(DefaultCoordinatorConfig(), nil); err == nil {
		t.Error("no workers accepted")
	}
	cfg := DefaultCoordinatorConfig()
	cfg.M = 0
	if _, err := NewCoordinator(cfg, []string{"127.0.0.1:1"}); err == nil {
		t.Error("bad config accepted")
	}
	// Dead address fails fast.
	if _, err := NewCoordinator(DefaultCoordinatorConfig(), []string{"127.0.0.1:1"}); err == nil {
		t.Error("dead worker accepted")
	}
}

func TestDistributedSkylineExact(t *testing.T) {
	addrs := startCluster(t, 3)
	for _, dist := range []gen.Distribution{gen.Independent, gen.Correlated, gen.AntiCorrelated} {
		ds := gen.Synthetic(dist, 5000, 4, 17)
		want := seq.SB(ds.Points, nil)
		cfg := DefaultCoordinatorConfig()
		cfg.M = 8
		cfg.SampleRatio = 0.05
		cfg.ChunkSize = 700
		coord, err := NewCoordinator(cfg, addrs)
		if err != nil {
			t.Fatal(err)
		}
		got, rep, err := coord.Skyline(context.Background(), ds)
		coord.Close()
		if err != nil {
			t.Fatalf("%v: %v", dist, err)
		}
		sameSet(t, got, want, dist.String())
		if rep.Candidates < len(want) || rep.Groups < 1 {
			t.Errorf("%v: report %+v", dist, rep)
		}
		if rep.Filtered == 0 {
			t.Errorf("%v: SZB filter never fired over TCP", dist)
		}
	}
}

func TestDistributedHeuristicAndSB(t *testing.T) {
	addrs := startCluster(t, 2)
	ds := gen.Synthetic(gen.AntiCorrelated, 3000, 3, 5)
	want := seq.SB(ds.Points, nil)
	cfg := DefaultCoordinatorConfig()
	cfg.M = 4
	cfg.SampleRatio = 0.1
	cfg.Heuristic = true
	cfg.UseZS = false
	coord, err := NewCoordinator(cfg, addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	got, _, err := coord.Skyline(context.Background(), ds)
	if err != nil {
		t.Fatal(err)
	}
	sameSet(t, got, want, "zhg+sb over tcp")
}

func TestRuleCaching(t *testing.T) {
	addrs := startCluster(t, 1)
	cfg := DefaultCoordinatorConfig()
	cfg.M = 4
	cfg.SampleRatio = 0.2
	coord, err := NewCoordinator(cfg, addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	ds := gen.Synthetic(gen.Independent, 1000, 3, 1)
	if _, _, err := coord.Skyline(context.Background(), ds); err != nil {
		t.Fatal(err)
	}
	// Second run broadcasts a new rule id; both must work.
	got, _, err := coord.Skyline(context.Background(), ds)
	if err != nil {
		t.Fatal(err)
	}
	sameSet(t, got, seq.SB(ds.Points, nil), "second run")
}

func TestEmptyDataset(t *testing.T) {
	addrs := startCluster(t, 1)
	coord, err := NewCoordinator(DefaultCoordinatorConfig(), addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	for _, ds := range []*point.Dataset{{Dims: 2}, nil} {
		sky, rep, err := coord.Skyline(context.Background(), ds)
		if err != nil || len(sky) != 0 || rep == nil || rep.Points != 0 || rep.Workers != 1 || rep.Strategy != plan.ZDG {
			t.Fatalf("empty: %v %+v %v", sky, rep, err)
		}
	}
}

func TestUnknownRuleRejected(t *testing.T) {
	ws, err := StartWorker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ws.Close()
	var reply ReduceReply
	w := ws.worker
	if err := w.ReduceGroup(ReduceArgs{RuleID: 999}, &reply); err == nil {
		t.Error("unknown rule accepted")
	}
}

func TestManyWorkersLargeData(t *testing.T) {
	if testing.Short() {
		t.Skip("large distributed run")
	}
	addrs := startCluster(t, 6)
	ds := gen.Synthetic(gen.Independent, 40000, 5, 77)
	want := seq.SB(ds.Points, nil)
	cfg := DefaultCoordinatorConfig()
	cfg.M = 16
	coord, err := NewCoordinator(cfg, addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	got, rep, err := coord.Skyline(context.Background(), ds)
	if err != nil {
		t.Fatal(err)
	}
	sameSet(t, got, want, "6 workers 40k")
	if rep.Workers != 6 {
		t.Errorf("workers = %d", rep.Workers)
	}
}

// A worker dying between queries must not fail subsequent queries: its
// tasks fail over to the survivors.
func TestWorkerFailover(t *testing.T) {
	var servers []*WorkerServer
	var addrs []string
	for i := 0; i < 3; i++ {
		ws, err := StartWorker("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		servers = append(servers, ws)
		addrs = append(addrs, ws.Addr())
	}
	defer func() {
		for _, ws := range servers {
			ws.Close()
		}
	}()
	cfg := DefaultCoordinatorConfig()
	cfg.M = 4
	cfg.SampleRatio = 0.1
	cfg.ChunkSize = 200
	coord, err := NewCoordinator(cfg, addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	ds := gen.Synthetic(gen.AntiCorrelated, 3000, 3, 7)
	want := seq.SB(ds.Points, nil)
	got, _, err := coord.Skyline(context.Background(), ds)
	if err != nil {
		t.Fatal(err)
	}
	sameSet(t, got, want, "before failure")

	// Kill one worker; the coordinator must still answer exactly.
	servers[1].Close()
	got, rep, err := coord.Skyline(context.Background(), ds)
	if err != nil {
		t.Fatalf("query after worker death: %v", err)
	}
	sameSet(t, got, want, "after failure")
	_ = rep
}

// With every worker dead the query must fail, not hang.
func TestAllWorkersDead(t *testing.T) {
	ws, err := StartWorker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultCoordinatorConfig()
	cfg.M = 4
	cfg.SampleRatio = 0.2
	coord, err := NewCoordinator(cfg, []string{ws.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	ws.Close()
	ds := gen.Synthetic(gen.Independent, 500, 2, 1)
	if _, _, err := coord.Skyline(context.Background(), ds); err == nil {
		t.Fatal("query succeeded with no live workers")
	}
}

func TestSkylineFileStreaming(t *testing.T) {
	addrs := startCluster(t, 2)
	ds := gen.Synthetic(gen.AntiCorrelated, 12000, 4, 41)
	want := seq.SB(ds.Points, nil)
	path := filepath.Join(t.TempDir(), "stream.zsky")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := codec.WriteBinary(f, ds); err != nil {
		t.Fatal(err)
	}
	f.Close()

	cfg := DefaultCoordinatorConfig()
	cfg.M = 8
	cfg.SampleRatio = 0.05
	cfg.ChunkSize = 900
	coord, err := NewCoordinator(cfg, addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	got, rep, err := coord.SkylineFile(context.Background(), path)
	if err != nil {
		t.Fatal(err)
	}
	sameSet(t, got, want, "file streaming")
	if rep.Filtered == 0 || rep.Candidates < len(want) {
		t.Errorf("report: %+v", rep)
	}
	// Missing file errors cleanly.
	if _, _, err := coord.SkylineFile(context.Background(), "/nope.zsky"); err == nil {
		t.Error("missing file accepted")
	}
}
