package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"zskyline/internal/dist"
	"zskyline/internal/gen"
	"zskyline/internal/metrics"
	"zskyline/internal/obs"
	"zskyline/internal/point"
	"zskyline/internal/seq"
	"zskyline/internal/zorder"
)

// cluster-mixed: the dist tier used the other way round from anti-d8 —
// the rows live on the workers, cut into Z-range shards, and one caller
// issues short operations, so round trips, wire codecs and shard routing
// weigh more than the kernels. The operation list is fixed: clusterCycles
// repetitions of clusterPattern, with the ranges and the inserted rows
// drawn from the seed. Inserts grow the resident data through the run;
// because every seed meets the same kind of operation at the same
// position, the growth is the same on every run.
const (
	clusterRows   = 60000 // preloaded
	clusterDims   = 8
	clusterShards = 8
	clusterBlock  = 1024 // rows per InsertBlock
	clusterCycles = 24
	clusterTail   = 0.90
	// rangeCheckEvery: every n-th range query is checked against the
	// reference restricted to the range.
	rangeCheckEvery = 10
)

// clusterPattern is one cycle: 6 range queries, 1 full skyline, 3 inserts.
const clusterPattern = "RRIRFRIRIR"

type clusterEnv struct {
	workers []*dist.WorkerServer
	cl      *dist.Cluster
	enc     *zorder.Encoder
	pts     []point.Point // the preloaded rows, for the kernel probes
	// rows and zc mirror what the cluster holds, for the reference.
	rows       []float64
	zc         zorder.ZCol
	preloadMS  float64
	insertRows *gen.Source
}

func (e *clusterEnv) close() {
	if e.cl != nil {
		e.cl.Close()
	}
	for _, w := range e.workers {
		w.Close()
	}
}

// mirror records a block the cluster acknowledged.
func (e *clusterEnv) mirror(b point.Block) {
	e.rows = append(e.rows, b.Data...)
	e.zc.AppendCol(e.enc.EncodeBlock(zorder.ZCol{}, b))
}

func (e *clusterEnv) held() point.Block { return point.Block{Dims: clusterDims, Data: e.rows} }

func setUpCluster(ctx context.Context, n int, seed int64) (*clusterEnv, error) {
	ds := gen.Synthetic(gen.Independent, n, clusterDims, seed)
	blk := point.BlockOf(clusterDims, ds.Points)
	want, err := reference(blk)
	if err != nil {
		return nil, err
	}
	e := &clusterEnv{pts: ds.Points,
		insertRows: gen.NewSource(gen.Independent, 1<<30, clusterDims, seed+1)}
	mins, maxs := make([]float64, clusterDims), make([]float64, clusterDims)
	for i := range maxs {
		maxs[i] = 1 // generated rows lie in the unit box
	}
	if e.enc, err = zorder.NewEncoder(clusterDims, 16, mins, maxs); err != nil {
		return nil, err
	}
	e.zc = zorder.ZCol{Words: e.enc.Words()}
	var groups [][]string
	for i := 0; i < 2; i++ { // two single-worker groups
		ws, err := dist.StartWorker("127.0.0.1:0")
		if err != nil {
			e.close()
			return nil, err
		}
		e.workers = append(e.workers, ws)
		groups = append(groups, []string{ws.Addr()})
	}
	e.cl, err = dist.NewCluster(ctx, dist.ClusterConfig{Mins: mins, Maxs: maxs, Bits: 16,
		UseZS: true, TreeMerge: true, Shards: clusterShards, Seed: seed}, groups)
	if err != nil {
		e.close()
		return nil, err
	}
	for _, b := range blk.ChunkBy(clusterBlock) {
		t0 := time.Now()
		if err := e.cl.InsertBlock(ctx, b); err != nil {
			e.close()
			return nil, err
		}
		e.preloadMS += ms(time.Since(t0))
		e.mirror(b)
	}
	// Warm-ups: the full skyline, checked against the reference, and one
	// range query per shard boundary.
	for i := 0; i < 2; i++ {
		sky, _, err := e.cl.Skyline(ctx)
		if err != nil {
			e.close()
			return nil, err
		}
		if got := digestOf(sky); got != want {
			e.close()
			return nil, fmt.Errorf("warm-up Cluster.Skyline returned %v, reference is %v", got, want)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < clusterShards; i++ {
		lo, hi := randomRange(rng)
		if _, _, err := e.cl.SkylineRange(ctx, lo, hi); err != nil {
			e.close()
			return nil, err
		}
	}
	return e, nil
}

// randomRange draws a Z-range exactly one shard wide at a random offset,
// so it straddles two of the uniform shards.
func randomRange(rng *rand.Rand) (lo, hi zorder.ZAddr) {
	const width = uint64(1) << 61 // 2^64 / clusterShards, in the leading word
	x := rng.Uint64() % ((clusterShards - 1) * width)
	return zorder.ZAddr{x, 0}, zorder.ZAddr{x + width, 0}
}

// clusterTrace is what the traced run records beyond the timings.
type clusterTrace struct {
	rec                 *recorder
	plainRange, trRange series // range latencies on untraced and traced cycles
	rangeWire, fullWire series
	routed, shardsAsked float64
}

// runOps executes the fixed operation list until it ends or the deadline
// passes. With tr set, cycles 1 and 2 of every four run under the span
// recorder and cycles 0 and 3 without, so both halves meet the same mean
// data size as the inserts grow it.
func (e *clusterEnv) runOps(ctx context.Context, cfg runConfig, l *opLog, tr *clusterTrace) error {
	rng := rand.New(rand.NewSource(cfg.seed))
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	ranges := 0
	for c := 0; c < clusterCycles; c++ {
		var rec *recorder
		if tr != nil && (c%4 == 1 || c%4 == 2) {
			rec = tr.rec
		}
		for _, kind := range clusterPattern {
			if !time.Now().Before(deadline) {
				return nil
			}
			switch kind {
			case 'R':
				lo, hi := randomRange(rng)
				var sky []point.Point
				var rep *dist.ClusterReport
				id := rec.start(c, 0, "dist.cluster_range")
				err := l.timed(&l.query, func() (err error) {
					sky, rep, err = e.cl.SkylineRange(ctx, lo, hi)
					return err
				})
				if err != nil {
					rec.end(id, nil)
					return err
				}
				wire := float64(rep.WireSentBytes + rep.WireRecvBytes)
				rec.end(id, map[string]float64{"routed": float64(rep.Routed), "wire_bytes": wire, "skyline": float64(len(sky))})
				l.wire = append(l.wire, wire)
				if tr != nil {
					tr.rangeWire = append(tr.rangeWire, wire)
					tr.routed += float64(rep.Routed)
					tr.shardsAsked += float64(rep.Shards)
					if rec != nil {
						tr.trRange = append(tr.trRange, l.query[len(l.query)-1])
					} else {
						tr.plainRange = append(tr.plainRange, l.query[len(l.query)-1])
					}
				}
				if ranges++; ranges%rangeCheckEvery == 0 {
					got, want := digestOf(sky), e.referenceIn(zorder.Range{Lo: lo, Hi: hi})
					l.check(got == want, cfg.log, "SkylineRange[%v,%v) returned %v, reference is %v", lo, hi, got, want)
				}
			case 'F':
				var rep *dist.ClusterReport
				id := rec.start(c, 0, "dist.cluster_full")
				err := l.timed(&l.net, func() (err error) {
					_, rep, err = e.cl.Skyline(ctx)
					return err
				})
				if err != nil {
					rec.end(id, nil)
					return err
				}
				wire := float64(rep.WireSentBytes + rep.WireRecvBytes)
				rec.end(id, map[string]float64{"routed": float64(rep.Routed), "wire_bytes": wire, "skyline": float64(rep.SkylineSize)})
				l.wire = append(l.wire, wire)
				if tr != nil {
					tr.fullWire = append(tr.fullWire, wire)
				}
			case 'I':
				b, err := e.insertRows.Next(clusterBlock)
				if err != nil {
					return err
				}
				id := rec.start(c, 0, "dist.cluster_insert")
				err = l.timed(&l.aux, func() error { return e.cl.InsertBlock(ctx, b) })
				rec.end(id, map[string]float64{"rows": float64(b.Len())})
				if err != nil {
					return err
				}
				e.mirror(b)
			}
		}
	}
	return nil
}

// referenceIn is the sequential skyline of the mirrored rows whose
// Z-address lies in rng.
func (e *clusterEnv) referenceIn(rng zorder.Range) digest {
	all := e.held()
	in := point.NewBlockBuilder(clusterDims, all.Len()/clusterShards)
	for i := 0; i < all.Len(); i++ {
		if rng.Contains(e.zc.At(i)) {
			in.Append(all.Row(i))
		}
	}
	return digestOfBlock(seq.SBBlock(in.Build(), nil))
}

// finalCheck compares the cluster's full skyline with the sequential
// skyline of everything inserted.
func (e *clusterEnv) finalCheck(ctx context.Context, cfg runConfig, l *opLog) error {
	sky, _, err := e.cl.Skyline(ctx)
	l.attempted++
	if err != nil {
		l.failed++
		return err
	}
	got, want := digestOf(sky), digestOfBlock(seq.SBBlock(e.held(), nil))
	l.check(got == want, cfg.log, "final Cluster.Skyline returned %v, reference over %d rows is %v", got, e.held().Len(), want)
	return nil
}

func runClusterMixed(ctx context.Context, cfg runConfig) (*result, error) {
	reps := setupReps
	if cfg.trace {
		reps = 1
	}
	n := cfg.scaled(clusterRows)
	e, setupS, err := setUp(reps, func() (*clusterEnv, error) { return setUpCluster(ctx, n, cfg.seed) })
	if err != nil {
		return nil, err
	}
	defer e.close()
	fmt.Fprintf(cfg.log, "cluster-mixed: preload n=%d d=%d shards=%d set-up %.3fs\n", n, clusterDims, clusterShards, setupS)
	var l opLog
	if !cfg.trace {
		res := newResult(endToEnd)
		if err := e.runOps(ctx, cfg, &l, nil); err != nil {
			return nil, err
		}
		if err := e.finalCheck(ctx, cfg, &l); err != nil {
			return nil, err
		}
		if err := fill(res, cfg, clusterTail, &l); err != nil {
			return nil, err
		}
		res.set("setup_s", setupS)
		return res, nil
	}

	res := newResult(perLayer)
	tr := &clusterTrace{rec: newRecorder()}
	busy0 := workerBusy(e.workers)
	if err := e.runOps(ctx, cfg, &l, tr); err != nil {
		return nil, err
	}
	busy := workerBusy(e.workers) - busy0
	if err := e.finalCheck(ctx, cfg, &l); err != nil {
		return nil, err
	}
	if len(l.query) == 0 || len(l.net) == 0 || len(l.aux) == 0 || len(tr.plainRange) == 0 || len(tr.trRange) == 0 {
		return nil, fmt.Errorf("traced run too short: %d range, %d full, %d insert operations", len(l.query), len(l.net), len(l.aux))
	}
	res.attempted, res.failed = l.attempted, l.failed
	res.set("dist.cluster_routed_frac", tr.routed/tr.shardsAsked)
	res.set("dist.cluster_range_wire_bytes", tr.rangeWire.median())
	res.set("dist.cluster_full_wire_bytes", tr.fullWire.median())
	res.set("dist.cluster_insert_block_ms", l.aux.median())
	res.set("dist.cluster_insert_krows_per_s", float64(e.held().Len())/(e.preloadMS+l.aux.sum()))
	var shardRows []int
	for _, r := range e.cl.ShardRows() {
		shardRows = append(shardRows, int(r))
	}
	res.set("dist.cluster_shard_rows_max_over_mean", metrics.NewBalance(shardRows).Imbalance)
	retries := int64(0)
	for _, m := range rpcMethods {
		retries += e.cl.Metrics().Counter("zsky_dist_retries_total", obs.L("method", "Worker."+m)).Value()
	}
	res.set("dist.cluster_retries", float64(retries))
	res.set("dist.worker_busy_per_wall", busy/((l.query.sum()+l.net.sum()+l.aux.sum())/1e3))
	res.set("bench.trace_overhead_frac", tr.trRange.median()/tr.plainRange.median()-1)

	if _, err := probeKernels(tr.rec, res, e.pts, clusterDims, runtime.GOMAXPROCS(0), cfg.seed); err != nil {
		return nil, err
	}
	return res, finishTrace(tr.rec, cfg, "cluster-mixed")
}
