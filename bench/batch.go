package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"runtime"
	"time"

	"zskyline/internal/core"
	"zskyline/internal/dist"
	"zskyline/internal/gen"
	"zskyline/internal/metrics"
	"zskyline/internal/obs"
	"zskyline/internal/parallel"
	"zskyline/internal/plan"
	"zskyline/internal/point"
	"zskyline/internal/sample"
)

// The two batch workloads run the same three executors over opposite
// data: anti-correlated rows keep a quarter of the input on the skyline,
// correlated rows keep a handful. Sizes are frozen. A run repeats the
// cycle query, net, query, aux until its time is up, so the query role
// collects well over the 40 samples its p75 needs, and it rotates the
// cycle over several datasets generated from the seed: how lucky the 2 %
// sample is decides how well the SZB filter works on a dataset (on
// correlated rows above all), and one dataset per run would make that
// luck the run's result.
const (
	antiRows   = 16000
	antiInputs = 8
	corrRows   = 120000
	corrInputs = 16
	batchDims  = 8
	batchTail  = 0.75
	// batchWorkers is the number of in-process loopback dist workers.
	batchWorkers = 2
	// warmUps is the number of untimed cycles a set-up ends with.
	warmUps = 2
)

func runAntiD8(ctx context.Context, cfg runConfig) (*result, error) {
	return runBatch(ctx, cfg, "anti-d8", gen.AntiCorrelated, cfg.scaled(antiRows), antiInputs)
}

func runCorrD8(ctx context.Context, cfg runConfig) (*result, error) {
	return runBatch(ctx, cfg, "corr-d8", gen.Correlated, cfg.scaled(corrRows), corrInputs)
}

// batchInput is one generated dataset and its reference skyline.
type batchInput struct {
	ds   *point.Dataset
	want digest
}

// batchEnv is a set-up batch workload: the generated datasets and the
// three long-lived executors.
type batchEnv struct {
	inputs  []batchInput
	nproc   int
	workers []*dist.WorkerServer
	coord   *dist.Coordinator
	eng     *core.Engine
	spec    *plan.Spec
}

func (e *batchEnv) close() {
	if e.coord != nil {
		e.coord.Close()
	}
	for _, w := range e.workers {
		w.Close()
	}
}

func setUpBatch(ctx context.Context, d gen.Distribution, n, inputs int, seed int64) (*batchEnv, error) {
	e := &batchEnv{nproc: runtime.GOMAXPROCS(0)}
	for i := 0; i < inputs; i++ {
		in := batchInput{ds: gen.Synthetic(d, n, batchDims, seed*int64(inputs)+int64(i))}
		var err error
		if in.want, err = reference(point.BlockOf(batchDims, in.ds.Points)); err != nil {
			return nil, err
		}
		e.inputs = append(e.inputs, in)
	}
	var err error
	addrs := make([]string, batchWorkers)
	for i := range addrs {
		ws, err := dist.StartWorker("127.0.0.1:0")
		if err != nil {
			e.close()
			return nil, err
		}
		e.workers = append(e.workers, ws)
		addrs[i] = ws.Addr()
	}
	dcfg := dist.DefaultCoordinatorConfig()
	dcfg.Seed = seed
	if e.coord, err = dist.NewCoordinator(dcfg, addrs); err != nil {
		e.close()
		return nil, err
	}
	ccfg := core.Defaults()
	ccfg.Workers = e.nproc
	ccfg.Seed = seed
	if e.eng, err = core.NewEngine(ccfg); err != nil {
		e.close()
		return nil, err
	}
	// The stage-by-stage replay runs the engine's own plan on LocalExec.
	e.spec = &plan.Spec{Strategy: ccfg.Strategy, Local: ccfg.Local, Merge: ccfg.Merge,
		M: ccfg.M, Delta: ccfg.Delta, SampleRatio: ccfg.SampleRatio, Bits: ccfg.Bits,
		Fanout: ccfg.Fanout, Seed: seed, MapTasks: 2 * ccfg.Workers}
	var warm opLog
	for i := 0; i < warmUps; i++ {
		if err := e.cycle(ctx, e.inputs[0], &warm, nil, io.Discard, nil); err != nil {
			e.close()
			return nil, err
		}
	}
	if warm.failed > 0 {
		e.close()
		return nil, fmt.Errorf("warm-up returned a wrong skyline")
	}
	return e, nil
}

// batchTrace is what a traced cycle records beyond the timings.
type batchTrace struct {
	rec        *recorder
	run        int
	tally      metrics.Tally // handed to parallel.Skyline
	parMallocs series
	coreRep    []*core.Report
	coreMalloc series
	distRep    []*dist.Report
	distMalloc series
	distSent   series
	distRecv   series
}

// cycle runs query, net, query, aux once each on one input, checking
// every returned skyline against the reference. tr is nil on an untraced
// cycle.
func (e *batchEnv) cycle(ctx context.Context, in batchInput, l *opLog, tr *batchTrace, log io.Writer, stop func() bool) error {
	var rec *recorder
	var tally *metrics.Tally
	run := 0
	if tr != nil {
		rec, tally, run = tr.rec, &tr.tally, tr.run
		tr.run++
	}
	var got digest
	verify := func(who string) {
		l.check(got == in.want, log, "%s returned %v, reference is %v", who, got, in.want)
	}
	queryOp := func() error {
		id := rec.start(run, 0, "parallel.skyline")
		err := l.timed(&l.query, func() error {
			sky, err := parallel.Skyline(ctx, in.ds, parallel.Options{Workers: e.nproc, Tally: tally})
			got = digestOf(sky)
			return err
		})
		rec.end(id, map[string]float64{"skyline": float64(got.n)})
		if tr != nil {
			tr.parMallocs = append(tr.parMallocs, l.mallocs)
		}
		verify("parallel.Skyline")
		return err
	}
	netOp := func() error {
		before := e.coord.WireStats()
		var rep *dist.Report
		id := rec.start(run, 0, "dist.coordinator_skyline")
		err := l.timed(&l.net, func() error {
			sky, r, err := e.coord.Skyline(ctx, in.ds)
			got, rep = digestOf(sky), r
			return err
		})
		if err != nil {
			rec.end(id, nil)
			return err
		}
		var sent, recv int64
		for i, ws := range rep.Wire {
			sent += ws.Sent - before[i].Sent
			recv += ws.Recv - before[i].Recv
		}
		rec.end(id, map[string]float64{"skyline": float64(got.n), "wire_sent": float64(sent), "wire_recv": float64(recv)})
		l.wire = append(l.wire, float64(sent+recv))
		if tr != nil {
			tr.distRep = append(tr.distRep, rep)
			tr.distMalloc = append(tr.distMalloc, l.mallocs)
			tr.distSent = append(tr.distSent, float64(sent))
			tr.distRecv = append(tr.distRecv, float64(recv))
		}
		verify("dist.Coordinator.Skyline")
		return nil
	}
	auxOp := func() error {
		var rep *core.Report
		id := rec.start(run, 0, "core.engine_skyline")
		err := l.timed(&l.aux, func() error {
			sky, r, err := e.eng.Skyline(ctx, in.ds)
			got, rep = digestOf(sky), r
			return err
		})
		rec.end(id, map[string]float64{"skyline": float64(got.n)})
		if err != nil {
			return err
		}
		if tr != nil {
			tr.coreRep = append(tr.coreRep, rep)
			tr.coreMalloc = append(tr.coreMalloc, l.mallocs)
		}
		verify("core.Engine.Skyline")
		return nil
	}
	for _, op := range []func() error{queryOp, netOp, queryOp, auxOp} {
		if stop != nil && stop() {
			return nil
		}
		if err := op(); err != nil {
			return err
		}
	}
	return nil
}

// loop repeats the cycle until the deadline, one input after another,
// and returns one log per input.
func (e *batchEnv) loop(ctx context.Context, tr *batchTrace, log io.Writer, d time.Duration) ([]*opLog, error) {
	logs := make([]*opLog, len(e.inputs))
	for i := range logs {
		logs[i] = &opLog{}
	}
	deadline := time.Now().Add(d)
	stop := func() bool { return !time.Now().Before(deadline) }
	for i := 0; !stop(); i++ {
		k := i % len(e.inputs)
		if err := e.cycle(ctx, e.inputs[k], logs[k], tr, log, stop); err != nil {
			return nil, err
		}
	}
	return logs, nil
}

func runBatch(ctx context.Context, cfg runConfig, name string, d gen.Distribution, n, inputs int) (*result, error) {
	// A traced run attributes one input layer by layer; an untraced run
	// rotates over all of them.
	reps := setupReps
	if cfg.trace {
		reps, inputs = 1, 1
	}
	e, setupS, err := setUp(reps, func() (*batchEnv, error) { return setUpBatch(ctx, d, n, inputs, cfg.seed) })
	if err != nil {
		return nil, err
	}
	defer e.close()
	fmt.Fprintf(cfg.log, "%s: %d inputs of n=%d d=%d, first skyline=%d, set-up %.3fs\n", name, inputs, n, batchDims, e.inputs[0].want.n, setupS)
	if cfg.trace {
		return e.traced(ctx, cfg, name)
	}
	res := newResult(endToEnd)
	logs, err := e.loop(ctx, nil, cfg.log, time.Duration(cfg.seconds*float64(time.Second)))
	if err != nil {
		return nil, err
	}
	if err := fill(res, cfg, batchTail, logs...); err != nil {
		return nil, err
	}
	res.set("setup_s", setupS)
	return res, nil
}

// traced produces the per-layer metrics: an untraced pass and a traced
// pass of the same cycle (their difference is the tracing overhead),
// the pipeline replayed stage by stage on plan.LocalExec, and the
// kernel probes.
func (e *batchEnv) traced(ctx context.Context, cfg runConfig, name string) (*result, error) {
	res := newResult(perLayer)
	rec := newRecorder()
	pass := time.Duration(cfg.seconds / 4 * float64(time.Second))

	plains, err := e.loop(ctx, nil, cfg.log, pass)
	if err != nil {
		return nil, err
	}
	busy0 := workerBusy(e.workers)
	tr := &batchTrace{rec: rec}
	ls, err := e.loop(ctx, tr, cfg.log, pass)
	if err != nil {
		return nil, err
	}
	busy := workerBusy(e.workers) - busy0
	plain, l := plains[0], ls[0] // a traced run has one input
	if len(l.query) == 0 || len(l.net) == 0 || len(l.aux) == 0 || len(plain.aux) == 0 {
		return nil, fmt.Errorf("traced pass too short: %d cycles", len(l.aux))
	}
	res.attempted, res.failed = plain.attempted+l.attempted, plain.failed+l.failed

	res.set("bench.trace_overhead_frac",
		(l.query.median()+l.net.median()+l.aux.median())/(plain.query.median()+plain.net.median()+plain.aux.median())-1)
	res.set("bench.query_iqr_frac", plain.query.iqrFrac())
	res.set("bench.net_iqr_frac", plain.net.iqrFrac())
	res.set("bench.aux_iqr_frac", plain.aux.iqrFrac())

	res.set("parallel.dom_tests", float64(tr.tally.Snapshot().DominanceTests)/float64(len(l.query)))
	res.set("parallel.alloc_count", tr.parMallocs.median())
	res.set("core.alloc_count", tr.coreMalloc.median())
	res.set("dist.alloc_count", tr.distMalloc.median())
	res.set("dist.wire_sent_bytes", tr.distSent.median())
	res.set("dist.wire_recv_bytes", tr.distRecv.median())
	res.set("dist.worker_busy_per_wall", busy/(l.net.sum()/1e3))
	var cp, c2, c3, shuffle, dp, d2, d3 series
	for _, r := range tr.coreRep {
		cp.add(r.Preprocess)
		c2.add(r.Phase2)
		c3.add(r.Phase3)
		shuffle = append(shuffle, float64(r.Tally.BytesShuffled))
	}
	for _, r := range tr.distRep {
		dp.add(r.Preprocess)
		d2.add(r.Phase2)
		d3.add(r.Phase3)
	}
	res.set("core.preprocess_ms", cp.median())
	res.set("core.phase2_ms", c2.median())
	res.set("core.phase3_ms", c3.median())
	res.set("core.shuffle_bytes", shuffle.median())
	res.set("dist.preprocess_ms", dp.median())
	res.set("dist.phase2_ms", d2.median())
	res.set("dist.phase3_ms", d3.median())

	runLocal, err := e.replay(ctx, rec, res, cfg.log)
	if err != nil {
		return nil, err
	}
	res.set("core.sim_overhead_ms", plain.aux.median()-runLocal)
	res.set("dist.wire_overhead_ms", plain.net.median()-runLocal)

	sbMS, err := probeKernels(rec, res, e.inputs[0].ds.Points, batchDims, e.nproc, cfg.seed)
	if err != nil {
		return nil, err
	}
	res.set("parallel.speedup", sbMS/plain.query.median())
	res.set("parallel.efficiency", sbMS/plain.query.median()/float64(e.nproc))

	return res, finishTrace(rec, cfg, name)
}

// finishTrace prints the per-layer table and writes the span file.
func finishTrace(rec *recorder, cfg runConfig, name string) error {
	rec.printLayers(cfg.log)
	path, err := rec.write(cfg.outDir, name)
	if err != nil {
		return err
	}
	fmt.Fprintf(cfg.log, "spans: %d written to %s\n", len(rec.spans), path)
	return nil
}

// rpcMethods are the worker methods whose handler time counts as worker
// compute.
var rpcMethods = []string{"LoadRule", "MapChunk", "ReduceGroup", "MergeGroups", "StoreShard", "ShardSkyline"}

// workerBusy sums, over the workers' own registries, the seconds their
// handlers have spent serving calls. Handlers of one worker overlap, so
// the sum can exceed the wall time of the operations that caused it.
func workerBusy(workers []*dist.WorkerServer) float64 {
	total := 0.0
	for _, w := range workers {
		for _, m := range rpcMethods {
			total += w.Metrics().Histogram("zsky_rpc_seconds", nil, obs.L("method", m)).Sum()
		}
	}
	return total
}

// replayReps is how often the pipeline is replayed stage by stage.
const replayReps = 3

// replay runs the three-phase pipeline of plan.Run by hand on
// plan.LocalExec, one span per stage, calling only the public functions
// plan.Run itself is made of. Map and local-skyline tasks run one after
// another, so their figures are busy time, not wall time. It returns the
// median wall of the whole plan.Run on the same executor.
func (e *batchEnv) replay(ctx context.Context, rec *recorder, res *result, log io.Writer) (float64, error) {
	ds, want := e.inputs[0].ds, e.inputs[0].want
	ex := plan.NewLocalExec(e.nproc)
	var whole series
	for i := 0; i < replayReps; i++ {
		runtime.GC()
		id := rec.start(i, 0, "plan.run_local")
		t0 := time.Now()
		sky, _, err := plan.Run(ctx, e.spec, ds, ex, nil)
		whole.add(time.Since(t0))
		rec.end(id, nil)
		if err != nil {
			return 0, err
		}
		if got := digestOf(sky); got != want {
			res.failed++
			fmt.Fprintf(log, "WRONG ANSWER: plan.Run on LocalExec returned %v, reference is %v\n", got, want)
		}
		res.attempted++
	}
	res.set("plan.run_local_ms", whole.median())

	var smpT, learnT, mapT, shufT, locT, locMaxT, mergeT series
	var filtered, candidates, inputBal, candBal float64
	var work metrics.Snapshot
	rounds := 0
	for i := 0; i < replayReps; i++ {
		runtime.GC()
		tally := &metrics.Tally{}
		root := rec.start(i, 0, "plan.replay")
		stage := func(name string, s *series, f func(id int) error) (int, error) {
			id := rec.start(i, root, name)
			t0 := time.Now()
			err := f(id)
			s.add(time.Since(t0))
			return id, err
		}

		var blocks []point.Block
		var rows []point.Point
		var mins, maxs []float64
		var ingestT series
		id, err := stage("point.ingest", &ingestT, func(int) error {
			src := point.NewDatasetSource(ds)
			for {
				b, err := src.Next(1 << 16)
				if err == io.EOF {
					break
				}
				if err != nil {
					return err
				}
				mins, maxs = b.UpdateBounds(mins, maxs)
				blocks = append(blocks, b)
			}
			for _, b := range blocks {
				rows = b.AppendPoints(rows)
			}
			return nil
		})
		rec.end(id, map[string]float64{"rows": float64(len(rows))})
		if err != nil {
			return 0, err
		}

		var smp []point.Point
		id, err = stage("sample.ratio", &smpT, func(int) (err error) {
			smp, err = sample.Ratio(rows, e.spec.SampleRatio, e.spec.Seed)
			return err
		})
		rec.end(id, map[string]float64{"sampled": float64(len(smp))})
		if err != nil {
			return 0, err
		}

		var rule *plan.Rule
		id, err = stage("plan.learn", &learnT, func(int) (err error) {
			rule, err = plan.Learn(e.spec, ds.Dims, mins, maxs, smp, tally)
			return err
		})
		if err != nil {
			rec.end(id, nil)
			return 0, err
		}
		rec.end(id, map[string]float64{"groups": float64(rule.Groups()), "sample_skyline": float64(rule.SampleSkySize())})

		// The same chunking plan.Run applies: MapTasks near-equal chunks
		// that never cross a drained block.
		var chunks []point.Block
		if len(blocks) == 1 {
			chunks = blocks[0].SplitN(e.spec.MapTasks)
		} else {
			target := (len(rows) + e.spec.MapTasks - 1) / e.spec.MapTasks
			for _, b := range blocks {
				chunks = append(chunks, b.ChunkBy(target)...)
			}
		}
		outs := make([]plan.MapOutput, len(chunks))
		id, _ = stage("plan.map", &mapT, func(int) error {
			for k, c := range chunks {
				outs[k] = rule.MapBlock(c, tally)
			}
			return nil
		})
		var groups []plan.Group
		var dropped int64
		sid, _ := stage("plan.shuffle", &shufT, func(int) error {
			groups, dropped = plan.Shuffle(outs)
			return nil
		})
		rec.end(id, map[string]float64{"tasks": float64(len(chunks)), "filtered": float64(dropped)})
		rec.end(sid, map[string]float64{"groups": float64(len(groups))})
		filtered = float64(dropped)

		inputs := make([]int, len(groups))
		cands := make([]int, len(groups))
		var slowest float64
		total := 0.0
		id, _ = stage("plan.local_skyline", &locT, func(parent int) error {
			for k, g := range groups {
				gid := rec.start(i, parent, "plan.local_skyline_group")
				t0 := time.Now()
				groups[k] = rule.LocalSkylineGroup(g, tally)
				slowest = math.Max(slowest, ms(time.Since(t0)))
				inputs[k], cands[k] = g.Len(), groups[k].Len()
				total += float64(cands[k])
				rec.end(gid, map[string]float64{"input": float64(inputs[k]), "candidates": float64(cands[k])})
			}
			return nil
		})
		rec.end(id, map[string]float64{"candidates": total})
		locMaxT = append(locMaxT, slowest)
		candidates, inputBal, candBal = total, metrics.NewBalance(inputs).Imbalance, metrics.NewBalance(cands).Imbalance

		rounds = 1
		if e.spec.TreeMerge && len(groups) > 2 {
			rounds = int(math.Ceil(math.Log2(float64(len(groups)))))
		}
		var sky []point.Point
		id, err = stage("plan.merge", &mergeT, func(int) (err error) {
			sky, err = plan.MergePhase(ctx, ex, rule, groups, e.spec.TreeMerge, tally)
			return err
		})
		work = tally.Snapshot()
		rec.end(id, map[string]float64{"skyline": float64(len(sky)), "rounds": float64(rounds)})
		rec.end(root, map[string]float64{"dom_tests": float64(work.DominanceTests),
			"region_tests": float64(work.RegionTests), "points_pruned": float64(work.PointsPruned)})
		if err != nil {
			return 0, err
		}
		if got := digestOf(sky); got != want {
			res.failed++
			fmt.Fprintf(log, "WRONG ANSWER: the replayed pipeline returned %v, reference is %v\n", got, want)
		}
		res.attempted++
	}
	res.set("sample.ratio_ms", smpT.median())
	res.set("plan.learn_ms", learnT.median())
	res.set("plan.map_ms", mapT.median())
	res.set("plan.map_filtered_frac", filtered/float64(ds.Len()))
	res.set("plan.shuffle_ms", shufT.median())
	res.set("plan.local_skyline_ms", locT.median())
	res.set("plan.local_skyline_max_ms", locMaxT.median())
	res.set("plan.merge_ms", mergeT.median())
	res.set("plan.merge_rounds", float64(rounds))
	res.set("plan.candidates_per_skyline", candidates/float64(max(want.n, 1)))
	res.set("plan.input_share_max_over_mean", inputBal)
	res.set("plan.candidate_share_max_over_mean", candBal)
	res.set("plan.dom_tests", float64(work.DominanceTests))
	res.set("plan.region_tests", float64(work.RegionTests))
	return whole.median(), nil
}
