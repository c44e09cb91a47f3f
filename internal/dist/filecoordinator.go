package dist

import (
	"context"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"zskyline/internal/codec"
	"zskyline/internal/dominance"
	"zskyline/internal/plan"
	"zskyline/internal/point"
	"zskyline/internal/sample"
)

// SkylineFile computes the skyline of a ZSKY binary file without ever
// loading it into the coordinator's memory: pass 1 streams the file to
// learn the bounding box and a reservoir sample (phase 1's input), pass
// 2 streams it again and filters and routes each batch on the
// coordinator's own pool, so memory holds one raw batch plus the
// survivors. Each group's survivors then cross the wire once, to a
// worker's ReduceGroup. This is the deployment shape for datasets larger
// than the coordinator — the same regime the paper's HDFS-resident
// inputs live in.
func (c *Coordinator) SkylineFile(ctx context.Context, path string) ([]point.Point, *Report, error) {
	return c.runQuery(ctx, "dist/skyline-file", "file:"+path, func(ctx context.Context, rep *Report) ([]point.Point, error) {
		start := time.Now()
		// ---- Pass 1: bounds + reservoir sample + count ----
		dims, n, mins, maxs, smp, err := c.scanFile(path)
		if err != nil || n == 0 {
			return nil, err
		}

		// ---- Phase 1 on the sample (identical to the in-memory path) ----
		spec := c.cfg.spec()
		r, err := plan.Learn(spec, dims, mins, maxs, smp, nil)
		if err != nil {
			return nil, err
		}
		ex := &rpcExec{LocalExec: c.exec, c: c}
		if err := ex.Broadcast(ctx, r); err != nil {
			return nil, err
		}
		rep.Preprocess = time.Since(start)
		rep.Partitions = r.Partitions()
		rep.Groups = r.Groups()

		// ---- Pass 2 / phase 2: map here, reduce on the workers ----
		t1 := time.Now()
		var outs []plan.MapOutput
		err = c.eachBatch(path, nil, func(batch point.Block) error {
			out, err := c.exec.RunMaps(ctx, r, batch.SplitN(runtime.GOMAXPROCS(0)), nil)
			outs = append(outs, out...)
			return err
		})
		if err != nil {
			return nil, err
		}
		groups, filtered := plan.Shuffle(outs)
		rep.Filtered = filtered
		if groups, err = ex.RunReduces(ctx, r, groups, nil); err != nil {
			return nil, err
		}
		for _, g := range groups {
			rep.Candidates += g.Len()
		}
		rep.Phase2 = time.Since(t1)

		// ---- Phase 3, on the coordinator's own pool ----
		t2 := time.Now()
		sky, err := plan.MergePhase(ctx, c.exec, r, groups, false, nil)
		if err == nil && !r.Provider().Caps().Transitive {
			sky, err = c.verifyFile(path, r.Provider(), sky)
		}
		if err != nil {
			return nil, err
		}
		rep.Phase3 = time.Since(t2)
		rep.Total = time.Since(start)
		return sky, nil
	})
}

// eachBatch streams the ZSKY file at path: it hands the reader to
// header, when non-nil, for the file's width and count, then every
// batch of at most ChunkSize rows to f.
func (c *Coordinator) eachBatch(path string, header func(*codec.BinaryReader) error, f func(point.Block) error) error {
	fh, err := os.Open(path)
	if err != nil {
		return err
	}
	defer fh.Close()
	br, err := codec.NewBinaryReader(fh)
	if err != nil {
		return err
	}
	if header != nil {
		if err := header(br); err != nil {
			return err
		}
	}
	for {
		batch, err := br.NextBlock(c.cfg.ChunkSize)
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if err := f(batch); err != nil {
			return err
		}
	}
}

// scanFile streams the file once for dims, count, bounds and a
// reservoir sample sized by the configured ratio (estimated from the
// header's point count).
func (c *Coordinator) scanFile(path string) (dims int, n int64, mins, maxs []float64, smp []point.Point, err error) {
	var res *sample.Stream
	err = c.eachBatch(path, func(br *codec.BinaryReader) (err error) {
		dims = br.Dims()
		res, err = sample.NewStream(max(int(c.cfg.SampleRatio*float64(br.Remaining())), 64), c.cfg.Seed)
		return err
	}, func(batch point.Block) error {
		mins, maxs = batch.UpdateBounds(mins, maxs)
		res.AddBlock(batch)
		n += int64(batch.Len())
		return nil
	})
	if err != nil {
		return 0, 0, nil, nil, nil, err
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
	var cand point.Block
	err := c.eachBatch(path, func(br *codec.BinaryReader) error {
		cand = point.BlockOf(br.Dims(), sky)
		return nil
	}, func(batch point.Block) error {
		if cand.Len() > 0 {
			cand = dominance.FilterBlock(prov, cand, batch, nil)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return cand.Points(), nil
}
