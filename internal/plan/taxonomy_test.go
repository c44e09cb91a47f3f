package plan_test

// Cross-executor span taxonomy: a traced run must emit the same
// top-level phase spans — learn, map, local-skyline, then the one
// merge/round-1 of phase 3 — whether it executes through the engine (core), the TCP
// coordinator/worker deployment (dist, over loopback, in memory or
// streamed from a file), or the shared-memory pool (parallel). The uniform taxonomy is what makes
// trace reports comparable across deployment substrates.

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"zskyline/internal/codec"
	"zskyline/internal/core"
	"zskyline/internal/dist"
	"zskyline/internal/gen"
	"zskyline/internal/obs"
	"zskyline/internal/parallel"
)

// phaseNames returns the names of the root span's direct children in
// start order.
func phaseNames(tr *obs.Trace) []string {
	children := tr.Root().Children()
	names := make([]string, len(children))
	for i, c := range children {
		names[i] = c.Name()
	}
	return names
}

func assertTaxonomy(t *testing.T, label string, got []string) {
	t.Helper()
	want := []string{"learn", "map", "local-skyline", "merge/round-1"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("%s: top-level spans = %v, want %v", label, got, want)
	}
}

func TestSpanTaxonomyUniformAcrossExecutors(t *testing.T) {
	ds := gen.Synthetic(gen.Independent, 2000, 4, 7)

	// Core: plan.Run on the engine's own LocalExec — the same driver
	// spans as parallel, under a Z-order strategy with one merge task.
	coreTr := obs.NewTrace("core")
	{
		cfg := core.Defaults()
		cfg.Strategy = core.ZDG
		cfg.M = 8
		cfg.SampleRatio = 0.05
		cfg.Workers = 4
		cfg.Seed = 7
		eng, err := core.NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ctx := obs.ContextWithTrace(context.Background(), coreTr)
		if _, _, err := eng.Skyline(ctx, gen.Synthetic(gen.Independent, 2000, 4, 7)); err != nil {
			t.Fatal(err)
		}
		coreTr.Finish()
	}

	// Dist: real RPC over loopback workers.
	distTr, fileTr := obs.NewTrace("dist"), obs.NewTrace("dist-file")
	path := filepath.Join(t.TempDir(), "in.zsky")
	{
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := codec.WriteBinary(f, ds); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		addrs := startCluster(t, 2)
		cfg := dist.DefaultCoordinatorConfig()
		cfg.M = 8
		cfg.SampleRatio = 0.05
		cfg.Seed = 7
		coord, err := dist.NewCoordinator(cfg, addrs)
		if err != nil {
			t.Fatal(err)
		}
		defer coord.Close()
		ctx := obs.ContextWithTrace(context.Background(), distTr)
		if _, _, err := coord.Skyline(ctx, ds); err != nil {
			t.Fatal(err)
		}
		distTr.Finish()

		// The same coordinator over a ZSKY copy of ds.
		ctx = obs.ContextWithTrace(context.Background(), fileTr)
		if _, _, err := coord.SkylineFile(ctx, path); err != nil {
			t.Fatal(err)
		}
		fileTr.Finish()
	}

	// Parallel: shared-memory pool. Its two groups merge as a pair, while
	// core's and dist's groups share one tree; each is one merge span.
	parTr := obs.NewTrace("parallel")
	{
		ctx := obs.ContextWithTrace(context.Background(), parTr)
		if _, err := parallel.Skyline(ctx, ds, parallel.Options{Workers: 2}); err != nil {
			t.Fatal(err)
		}
		parTr.Finish()
	}

	coreNames := phaseNames(coreTr)
	distNames := phaseNames(distTr)
	parNames := phaseNames(parTr)
	assertTaxonomy(t, "core", coreNames)
	assertTaxonomy(t, "dist", distNames)
	assertTaxonomy(t, "dist-file", phaseNames(fileTr))
	assertTaxonomy(t, "parallel", parNames)

	// The dist runs' RPC spans must nest inside the phases, never at
	// the top level: the learn phase carries the rule broadcast, the
	// reduce phase its calls, and the merge — run on the coordinator —
	// none.
	for label, tr := range map[string]*obs.Trace{"dist": distTr, "dist-file": fileTr} {
		for _, c := range tr.Root().Children() {
			kids := spanNames(c.Children())
			switch {
			case c.Name() == "local-skyline":
				if len(kids) == 0 || kids[0] != "rpc/Worker.ReduceGroup" {
					t.Fatalf("%s local-skyline has no rpc/Worker.ReduceGroup child; children: %v", label, kids)
				}
			case strings.HasPrefix(c.Name(), "merge/"):
				if len(kids) != 0 {
					t.Fatalf("%s %s has children %v; phase 3 issues no RPC", label, c.Name(), kids)
				}
			}
		}
	}
}

func spanNames(spans []*obs.Span) []string {
	names := make([]string, len(spans))
	for i, s := range spans {
		names[i] = s.Name()
	}
	return names
}
