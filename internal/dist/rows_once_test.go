package dist

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"

	"zskyline/internal/codec"
	"zskyline/internal/core"
	"zskyline/internal/dominance"
	"zskyline/internal/gen"
	"zskyline/internal/obs"
	"zskyline/internal/plan"
	"zskyline/internal/point"
	"zskyline/internal/seq"
	"zskyline/internal/transport"
	"zskyline/internal/zorder"
)

// batchQuery is one way to ask a Coordinator for a batch skyline.
type batchQuery func(context.Context, *Coordinator) ([]point.Point, *Report, error)

// batchQueries returns the two batch entry points over ds: Skyline in
// memory, and SkylineFile over a ZSKY copy of ds written for the test.
func batchQueries(t *testing.T, ds *point.Dataset) map[string]batchQuery {
	t.Helper()
	path := writeZSKY(t, ds)
	return map[string]batchQuery{
		"Skyline": func(ctx context.Context, c *Coordinator) ([]point.Point, *Report, error) {
			return c.Skyline(ctx, ds)
		},
		"SkylineFile": func(ctx context.Context, c *Coordinator) ([]point.Point, *Report, error) {
			return c.SkylineFile(ctx, path)
		},
	}
}

// batchDescriptors are the relations the batch-path tests run under: one
// per provider kind the coordinator treats differently (Pareto, a
// transitive non-Pareto relation, a non-transitive one).
var batchDescriptors = []dominance.Descriptor{
	{},
	{Kind: dominance.KindFlex, Weights: [][]float64{{1, 1, 1, 1}, {3, 1, 1, 1}}},
	{Kind: dominance.KindKDom, K: 3},
}

// TestRowsCrossOnce pins the batch path's wire shape. Per relation, in
// memory and streamed from a file, the coordinator filters and routes
// every row itself, so the workers are asked for the rule and the
// reduces only, and the rows over all ReduceGroup requests are exactly
// the n − Filtered survivors: each crosses the wire once, with its
// Z-address under Pareto and without one otherwise. The answer is the
// oracle's, also when a ReduceGroup call is severed.
func TestRowsCrossOnce(t *testing.T) {
	ds := gen.Synthetic(gen.AntiCorrelated, 6000, 4, 41)
	for _, desc := range batchDescriptors {
		prov, err := desc.Provider()
		if err != nil {
			t.Fatal(err)
		}
		want := sbUnder(prov, ds.Points)
		for name, run := range batchQueries(t, ds) {
			t.Run(prov.Name()+"/"+name, func(t *testing.T) {
				cfg := ftConfig()
				cfg.Dominance = desc
				connect := func(addrs ...string) *Coordinator {
					c, err := NewCoordinator(cfg, addrs)
					if err != nil {
						t.Fatal(err)
					}
					t.Cleanup(func() { c.Close() })
					return c
				}

				var rows, encoded atomic.Int64
				record := func(method uint16, payload []byte, reply transport.Marshaler) transport.Marshaler {
					var args ReduceArgs
					if method == mReduceGroup && args.DecodeFrom(payload) == nil {
						rows.Add(int64(args.Group.Len()))
						if args.Group.ZCol.Len() == args.Group.Len() {
							encoded.Add(int64(args.Group.Len()))
						}
					}
					return reply
				}
				coord := connect(startLyingWorker(t, record), startLyingWorker(t, record))
				sent, recv := tcpTotals(coord)
				got, rep, err := run(context.Background(), coord)
				if err != nil {
					t.Fatal(err)
				}
				sameSet(t, got, want, "fault-free")
				checkBatchRPCs(t, coord, rep, sent, recv)
				if survivors := int64(ds.Len()) - rep.Filtered; rows.Load() != survivors || survivors == 0 {
					t.Errorf("reduce requests carried %d rows, want the %d survivors of %d (filtered %d)",
						rows.Load(), survivors, ds.Len(), rep.Filtered)
				}
				wantEncoded := int64(0)
				if dominance.IsPareto(prov) {
					wantEncoded = rows.Load()
				}
				if encoded.Load() != wantEncoded {
					t.Errorf("%d of %d shipped rows carry their Z-address, want %d", encoded.Load(), rows.Load(), wantEncoded)
				}

				sever := NewFaultPlan(FaultRule{Method: "Worker.ReduceGroup", Nth: 1, Action: FaultSever})
				ws, err := StartWorkerWithOptions("127.0.0.1:0", WorkerOptions{Faults: sever})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { ws.Close() })
				got, _, err = run(context.Background(), connect(ws.Addr(), startCluster(t, 1)[0]))
				if err != nil {
					t.Fatal(err)
				}
				sameSet(t, got, want, "reduce severed")
				if sever.Injected() == 0 {
					t.Error("the sever never fired; the fault path was not exercised")
				}
			})
		}
	}
}

// TestCoordinatorRejectsBadReduceReply: a worker whose ReduceGroup
// replies carry rows of the wrong width, more rows than it was sent, or
// a Z-address column of the wrong width or length gets the query failed
// with errBadReduceReply — classed fatal, recorded — never a skyline. A
// reply that merely leaves its column out is merged exactly.
func TestCoordinatorRejectsBadReduceReply(t *testing.T) {
	const dims = 3
	ds := gen.Synthetic(gen.Independent, 2000, dims, 3)
	cases := []struct {
		name   string
		bad    bool
		mutate func(sent plan.Group, got *plan.Group)
	}{
		{"narrow rows", true, func(_ plan.Group, g *plan.Group) {
			g.Block, g.ZCol = point.Block{Dims: dims - 1, Data: make([]float64, dims-1)}, zorder.ZCol{}
		}},
		{"more rows than sent", true, func(sent plan.Group, g *plan.Group) {
			bb := point.NewBlockBuilder(dims, sent.Len()+1)
			bb.AppendBlock(sent.Block)
			bb.Append(sent.Block.Row(0))
			g.Block, g.ZCol = bb.Build(), zorder.ZCol{}
		}},
		{"short column", true, func(_ plan.Group, g *plan.Group) {
			g.ZCol = g.ZCol.Slice(0, g.ZCol.Len()-1)
		}},
		{"wide addresses", true, func(_ plan.Group, g *plan.Group) {
			w := g.ZCol.Words + 1
			g.ZCol = zorder.ZCol{Words: w, Data: make([]uint64, g.Len()*w)}
		}},
		{"no column", false, func(_ plan.Group, g *plan.Group) {
			g.ZCol = zorder.ZCol{}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			liar := startLyingWorker(t, func(method uint16, payload []byte, reply transport.Marshaler) transport.Marshaler {
				var args ReduceArgs
				if red, ok := reply.(ReduceReply); ok && args.DecodeFrom(payload) == nil {
					tc.mutate(args.Group, &red.Candidates)
					return red
				}
				return reply
			})
			coord, err := NewCoordinator(ftConfig(), []string{liar})
			if err != nil {
				t.Fatal(err)
			}
			defer coord.Close()
			ctx := obs.ContextWithRequestID(context.Background(), "bad-reduce")
			got, _, err := coord.Skyline(ctx, ds)
			if !tc.bad {
				if err != nil {
					t.Fatal(err)
				}
				sameSet(t, got, seq.BruteForce(ds.Points), tc.name)
				return
			}
			if !errors.Is(err, errBadReduceReply) || got != nil {
				t.Fatalf("%d rows, err %v; want errBadReduceReply and no skyline", len(got), err)
			}
			if last := lastQueryEvent(coord, "bad-reduce"); last.Error != "fatal" || last.Message != err.Error() {
				t.Errorf("query event error=%q message=%q, want fatal / %q", last.Error, last.Message, err)
			}
		})
	}
}

// TestSkylineFileReportsLikeSkyline: SkylineFile over a ZSKY copy of a
// dataset runs the in-memory pipeline's driver in passes — the same
// sample draws, rule, cuts and verify — so under ZDG, Pareto and a
// non-transitive relation alike it reports the same plan as Skyline on
// the dataset (every count and per-group slice of plan.Report), and the
// same answer.
func TestSkylineFileReportsLikeSkyline(t *testing.T) {
	ds := gen.Synthetic(gen.AntiCorrelated, 5000, 4, 43)
	addrs := startCluster(t, 2)
	queries := batchQueries(t, ds)
	for _, desc := range []dominance.Descriptor{{}, {Kind: dominance.KindKDom, K: 3}} {
		cfg := ftConfig()
		cfg.Dominance = desc
		c, err := NewCoordinator(cfg, addrs)
		if err != nil {
			t.Fatal(err)
		}
		want, wantRep, err := queries["Skyline"](context.Background(), c)
		if err != nil {
			t.Fatal(err)
		}
		got, rep, err := queries["SkylineFile"](context.Background(), c)
		if err != nil {
			t.Fatal(err)
		}
		c.Close()
		label := desc.String()
		sameSet(t, got, want, label)
		samePlan(t, rep.Report, wantRep.Report, label+": file vs in memory")
		if rep.Filtered == 0 {
			t.Errorf("%s: the filter dropped nothing, so the test proves little", label)
		}
	}
}

// TestCoreAndDistReportAlike: one spec run by core.Engine and by a
// loopback Coordinator learns the same rule and routes the same rows,
// so both report the same plan — groups, partitions, pruned, filtered,
// per-group input and candidates, sample, skyline and points. The
// engine reports it again over a ZSKY copy of the data, under Pareto
// and under a non-transitive relation whose verify re-reads the file.
func TestCoreAndDistReportAlike(t *testing.T) {
	addrs := startCluster(t, 2)
	for _, desc := range []dominance.Descriptor{{}, {Kind: dominance.KindKDom, K: 3}} {
		for _, d := range []gen.Distribution{gen.AntiCorrelated, gen.Independent} {
			ds := gen.Synthetic(d, 8000, 5, 47)
			label := desc.String() + "/" + d.String()
			dcfg := DefaultCoordinatorConfig()
			dcfg.M = 16
			dcfg.Dominance = desc
			coord, err := NewCoordinator(dcfg, addrs)
			if err != nil {
				t.Fatal(err)
			}
			_, drep, err := coord.Skyline(context.Background(), ds)
			coord.Close()
			if err != nil {
				t.Fatal(err)
			}
			ccfg := core.Defaults()
			ccfg.M = 16
			ccfg.Workers = 2
			ccfg.Dominance = desc
			eng, err := core.NewEngine(ccfg)
			if err != nil {
				t.Fatal(err)
			}
			want, crep, err := eng.Skyline(context.Background(), ds)
			if err != nil {
				t.Fatal(err)
			}
			samePlan(t, drep.Report, crep.Report, label+": dist vs core")
			if drep.Points != ds.Len() || drep.Filtered == 0 || drep.Workers != len(addrs) {
				t.Errorf("%s: points=%d filtered=%d workers=%d", label, drep.Points, drep.Filtered, drep.Workers)
			}
			got, frep, err := eng.SkylineFile(context.Background(), writeZSKY(t, ds))
			if err != nil {
				t.Fatal(err)
			}
			sameSet(t, got, want, label+": core file")
			samePlan(t, frep.Report, crep.Report, label+": core file vs in memory")
		}
	}
}

// writeZSKY writes ds to a ZSKY file under t's temp dir and returns its
// path.
func writeZSKY(t *testing.T, ds *point.Dataset) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "in.zsky")
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
	return path
}

// samePlan fails unless got and want agree on everything but the
// phase walls.
func samePlan(t *testing.T, got, want plan.Report, label string) {
	t.Helper()
	got.Preprocess, got.Phase2, got.Phase3, got.Total = 0, 0, 0, 0
	want.Preprocess, want.Phase2, want.Phase3, want.Total = 0, 0, 0, 0
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s: reports differ\n got  %+v\n want %+v", label, got, want)
	}
}
