package dist

import (
	"context"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"zskyline/internal/codec"
	"zskyline/internal/dominance"
	"zskyline/internal/obs"
	"zskyline/internal/plan"
	"zskyline/internal/point"
	"zskyline/internal/sample"
)

// SkylineFile computes the skyline of a ZSKY binary file without ever
// loading it into the coordinator's memory: pass 1 streams the file to
// learn the bounding box and a reservoir sample (phase 1's input),
// pass 2 streams chunks straight to the workers' MapChunk RPCs. This
// is the deployment shape for datasets larger than the coordinator —
// the same regime the paper's HDFS-resident inputs live in.
func (c *Coordinator) SkylineFile(ctx context.Context, path string) (_ []point.Point, _ *Report, retErr error) {
	rep := &Report{Workers: len(c.addrs)}
	start := time.Now()

	// One "query" event per run, joined by request ID to the "rpc"
	// events the streamed map calls record (same shape as Skyline).
	id := obs.RequestIDFrom(ctx)
	if id == "" {
		id = obs.NewRequestID()
		ctx = obs.ContextWithRequestID(ctx, id)
	}
	ev := &obs.Event{
		ID:        id,
		Kind:      "query",
		Route:     "dist/skyline-file",
		Query:     "file:" + path,
		Dominance: c.cfg.Dominance.String(),
	}
	wireBefore := c.WireStats()
	results := 0
	defer func() {
		ev.DurationMS = float64(time.Since(start).Microseconds()) / 1000
		ev.SetPhase("preprocess", rep.Preprocess)
		ev.SetPhase("phase2", rep.Phase2)
		ev.SetPhase("phase3", rep.Phase3)
		for i, ws := range c.WireStats() {
			ev.WireSentBytes += ws.Sent - wireBefore[i].Sent
			ev.WireRecvBytes += ws.Recv - wireBefore[i].Recv
		}
		ev.SetResults(results)
		if retErr != nil {
			ev.SetError(className(classify(retErr)), retErr.Error())
			c.events.RecordForced(*ev)
			return
		}
		c.events.Record(*ev)
	}()

	// ---- Pass 1: bounds + reservoir sample + count ----
	t0 := time.Now()
	dims, n, mins, maxs, smp, err := c.scanFile(path)
	if err != nil {
		return nil, nil, err
	}
	if n == 0 {
		return nil, rep, nil
	}

	// ---- Phase 1 on the sample (identical to the in-memory path) ----
	spec := c.cfg.spec()
	r, err := plan.Learn(spec, dims, mins, maxs, smp, nil)
	if err != nil {
		return nil, nil, err
	}
	ex := &rpcExec{LocalExec: c.exec, c: c}
	if err := ex.Broadcast(ctx, r); err != nil {
		return nil, nil, err
	}
	rep.Preprocess = time.Since(t0)
	rep.Partitions = r.Partitions()
	rep.Groups = r.Groups()

	// ---- Pass 2 / phase 2: stream chunks to workers ----
	t1 := time.Now()
	mapOuts, err := c.streamMap(ctx, path, ex.ruleID)
	if err != nil {
		return nil, nil, err
	}
	groups, filtered := plan.Shuffle(mapOuts)
	rep.Filtered = filtered
	groups, err = ex.RunReduces(ctx, r, groups, nil)
	if err != nil {
		return nil, nil, err
	}
	for _, g := range groups {
		rep.Candidates += g.Len()
	}
	rep.Phase2 = time.Since(t1)

	// ---- Phase 3, on the coordinator's own pool ----
	t2 := time.Now()
	sky, err := plan.MergePhase(ctx, ex, r, groups, spec.TreeMerge, nil)
	if err == nil && !r.Provider().Caps().Transitive {
		sky, err = c.verifyFile(path, r.Provider(), sky)
	}
	if err != nil {
		return nil, nil, err
	}
	rep.Phase3 = time.Since(t2)
	rep.Total = time.Since(start)
	rep.Wire = c.WireStats()
	results = len(sky)
	return sky, rep, nil
}

// scanFile streams the file once for dims, count, bounds and a
// reservoir sample sized by the configured ratio (estimated from the
// header's point count).
func (c *Coordinator) scanFile(path string) (dims int, n int64, mins, maxs []float64, smp []point.Point, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, nil, nil, nil, err
	}
	defer f.Close()
	br, err := codec.NewBinaryReader(f)
	if err != nil {
		return 0, 0, nil, nil, nil, err
	}
	dims = br.Dims()
	k := int(c.cfg.SampleRatio * float64(br.Remaining()))
	if k < 64 {
		k = 64
	}
	res, err := sample.NewStream(k, c.cfg.Seed)
	if err != nil {
		return 0, 0, nil, nil, nil, err
	}
	for {
		batch, err := br.NextBlock(c.cfg.ChunkSize)
		if err == io.EOF {
			break
		}
		if err != nil {
			return 0, 0, nil, nil, nil, err
		}
		mins, maxs = batch.UpdateBounds(mins, maxs)
		res.AddBlock(batch)
		n += int64(batch.Len())
	}
	if n > 0 && len(res.Sample()) == 0 {
		return 0, 0, nil, nil, nil, fmt.Errorf("dist: empty sample from %d points", n)
	}
	return dims, n, mins, maxs, res.Sample(), nil
}

// verifyFile closes the pipeline for a non-transitive relation, as
// plan.Run does in memory: the merged rows are a candidate superset (an
// eliminated row can still dominate a candidate), so a third pass
// retests them against every row of the file, one batch at a time.
func (c *Coordinator) verifyFile(path string, prov dominance.Provider, sky []point.Point) ([]point.Point, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	br, err := codec.NewBinaryReader(f)
	if err != nil {
		return nil, err
	}
	cand := point.BlockOf(br.Dims(), sky)
	for cand.Len() > 0 {
		batch, err := br.NextBlock(c.cfg.ChunkSize)
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		cand = dominance.FilterBlock(prov, cand, batch, nil)
	}
	return cand.Points(), nil
}

// streamMap streams the file's chunks to the workers with bounded
// in-flight RPCs (one per worker connection), so coordinator memory
// holds at most workers+1 batches at any moment.
func (c *Coordinator) streamMap(ctx context.Context, path string, ruleID uint64) ([]plan.MapOutput, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	br, err := codec.NewBinaryReader(f)
	if err != nil {
		return nil, err
	}
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
		outs     []plan.MapOutput
	)
	for {
		batch, err := br.NextBlock(c.cfg.ChunkSize)
		if err == io.EOF {
			break
		}
		if err != nil {
			wg.Wait()
			return nil, err
		}
		mu.Lock()
		stop := firstErr != nil
		mu.Unlock()
		if stop {
			break
		}
		// Admission rides the liveness state machine: a resurrected
		// worker rejoins the streaming rotation mid-file.
		worker, err := c.acquire(ctx)
		if err != nil {
			wg.Wait()
			return nil, err
		}
		wg.Add(1)
		go func(batch point.Block, worker int) {
			defer wg.Done()
			defer c.release(worker)
			out, err := c.mapChunk(ctx, ruleID, batch, worker)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				if firstErr == nil {
					firstErr = err
				}
				return
			}
			outs = append(outs, out)
		}(batch, worker)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return outs, nil
}
