package main

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"time"

	"zskyline/internal/dist"
	"zskyline/internal/metrics"
	"zskyline/internal/plan"
	"zskyline/internal/point"
	"zskyline/internal/seq"
	"zskyline/internal/transport"
	"zskyline/internal/zbtree"
	"zskyline/internal/zorder"
)

// sink keeps a probe's result live so the compiler cannot drop the loop.
var sink int

// probeReps is the repetition count of each kernel probe; the metric is
// the median.
const probeReps = 5

// medianOf times f reps times, opening one span per repetition.
func medianOf(rec *recorder, name string, reps int, f func()) float64 {
	var s series
	for i := 0; i < reps; i++ {
		id := rec.start(i, 0, name)
		t0 := time.Now()
		f()
		s.add(time.Since(t0))
		rec.end(id, nil)
	}
	return s.median()
}

// probeKernels measures the kernels underneath every workload — the
// dominance test, the block pack, the Z-encode, the ZB-tree build,
// search and merge, the sequential baseline and the wire codecs — on
// the workload's own rows, through the layers' public functions. It
// returns the sequential baseline's time for the speed-up figure.
func probeKernels(rec *recorder, res *result, pts []point.Point, dims, nproc int, seed int64) (sbMS float64, err error) {
	var blk point.Block
	res.set("point.pack_ms", medianOf(rec, "point.pack", probeReps, func() { blk = point.BlockOf(dims, pts) }))
	n := blk.Len()

	// Dominance tests over random row pairs of the workload's data.
	rng := rand.New(rand.NewSource(seed))
	const pairs = 1 << 16
	ij := make([]int32, 2*pairs)
	for k := range ij {
		ij[k] = int32(rng.Intn(n))
	}
	const domReps = 16
	hits := 0
	domMS := medianOf(rec, "point.dominates", probeReps, func() {
		for r := 0; r < domReps; r++ {
			for k := 0; k < pairs; k++ {
				if point.DominatesRows(blk, int(ij[2*k]), blk, int(ij[2*k+1])) {
					hits++
				}
			}
		}
	})
	res.set("point.dominates_ns", domMS*1e6/(domReps*pairs))

	mins, maxs := blk.UpdateBounds(nil, nil)
	enc, err := zorder.NewEncoder(dims, 16, mins, maxs)
	if err != nil {
		return 0, err
	}
	var zc zorder.ZCol
	encMS := medianOf(rec, "zorder.encode", probeReps, func() { zc = enc.EncodeBlock(zorder.ZCol{}, blk) })
	res.set("zorder.encode_ms", encMS)
	res.set("zorder.encode_mrows_per_s", float64(n)/1e6/(encMS/1e3))

	// One worker's shard: build, Z-search, then the merge of two shard
	// skylines over one shared store.
	half := n / max(nproc, 2)
	shard, shardZ := blk.Slice(0, half), zc.Slice(0, half)
	st := zbtree.NewStoreWithZCol(enc, shard, shardZ)
	res.set("zbtree.build_ms", medianOf(rec, "zbtree.build", probeReps, func() { zbtree.BuildStore(st, 0, nil) }))
	tally := &metrics.Tally{}
	var skyA point.Block
	var skyAZ zorder.ZCol
	res.set("zbtree.zsearch_ms", medianOf(rec, "zbtree.zsearch", probeReps, func() {
		skyA, skyAZ = zbtree.ZSearchGroup(enc, 0, shard, shardZ, tally)
	}))
	skyB, skyBZ := zbtree.ZSearchGroup(enc, 0, blk.Slice(half, 2*half), zc.Slice(half, 2*half), nil)
	bb := point.NewBlockBuilder(dims, skyA.Len()+skyB.Len())
	bb.AppendBlock(skyA)
	bb.AppendBlock(skyB)
	both := zorder.ZCol{Words: skyAZ.Words}
	both.AppendCol(skyAZ)
	both.AppendCol(skyBZ)
	mst := zbtree.NewStoreWithZCol(enc, bb.Build(), both)
	rowsA, rowsB := rowRange(0, skyA.Len()), rowRange(skyA.Len(), skyA.Len()+skyB.Len())
	res.set("zbtree.merge_ms", medianOf(rec, "zbtree.merge", probeReps, func() {
		// MergeBlock consumes its inputs, so each repetition rebuilds them
		// outside the span's interest but inside its time; the build of two
		// skyline-sized trees is small beside the merge.
		zbtree.MergeBlock(zbtree.BuildRows(mst, 0, rowsA, tally), zbtree.BuildRows(mst, 0, rowsB, tally))
	}))
	snap := tally.Snapshot()
	res.set("zbtree.dom_tests", float64(snap.DominanceTests)/probeReps)
	res.set("zbtree.region_tests", float64(snap.RegionTests)/probeReps)

	sbMS = medianOf(rec, "seq.sb", probeReps, func() { seq.SBBlock(blk, nil) })
	res.set("seq.sb_ms", sbMS)

	// The dist wire codecs on workload-sized payloads: one map chunk, one
	// reduce reply and one two-group merge request.
	chunk := blk.Slice(0, min(n, 8192))
	cand := plan.Group{Block: skyA, ZCol: skyAZ}
	msgs := []struct {
		enc transport.Marshaler
		dec func() transport.Unmarshaler
	}{
		{dist.MapArgs{RuleID: 1, Block: chunk}, func() transport.Unmarshaler { return new(dist.MapArgs) }},
		{dist.ReduceReply{Candidates: cand}, func() transport.Unmarshaler { return new(dist.ReduceReply) }},
		{dist.MergeArgs{RuleID: 1, Groups: []plan.Group{cand, {Gid: 1, Block: skyB, ZCol: skyBZ}}}, func() transport.Unmarshaler { return new(dist.MergeArgs) }},
	}
	var encodeMS, decodeMS float64
	for _, m := range msgs {
		var frame []byte
		var cerr error
		encodeMS += medianOf(rec, "dist.encode", probeReps, func() {
			if frame, cerr = m.enc.AppendTo(frame[:0]); cerr != nil {
				frame = nil
			}
		})
		decodeMS += medianOf(rec, "dist.decode", probeReps, func() {
			if err := m.dec().DecodeFrom(frame); err != nil {
				cerr = err
			}
		})
		if cerr != nil {
			return 0, fmt.Errorf("dist codec probe: %w", cerr)
		}
	}
	res.set("dist.encode_ms", encodeMS)
	res.set("dist.decode_ms", decodeMS)

	sink = hits
	return sbMS, probeTransport(rec, res)
}

func rowRange(lo, hi int) []int32 {
	rows := make([]int32, 0, hi-lo)
	for i := lo; i < hi; i++ {
		rows = append(rows, int32(i))
	}
	return rows
}

// echo is the transport probe's handler: the reply is the request.
type echo []byte

func (e echo) AppendTo(dst []byte) ([]byte, error) { return append(dst, e...), nil }
func (e *echo) DecodeFrom(data []byte) error       { *e = append((*e)[:0], data...); return nil }

type echoHandler struct{}

func (echoHandler) ServeFrame(_ uint16, payload []byte) (transport.Marshaler, error) {
	return echo(append([]byte(nil), payload...)), nil
}

// probeTransport measures the framed transport alone on loopback TCP:
// an empty round trip, a 1 MiB echo, and the header codec.
func probeTransport(rec *recorder, res *result) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	served := make(chan struct{})
	go func() {
		defer close(served)
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		transport.ServeConn(conn, echoHandler{}, transport.ServeOptions{})
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		ln.Close()
		<-served
		return err
	}
	cl := transport.NewClient(conn)
	defer func() {
		cl.Close()
		ln.Close()
		<-served
	}()

	ctx := context.Background()
	var reply echo
	var cerr error
	call := func(payload echo) {
		if _, _, err := cl.Call(ctx, 1, payload, &reply); err != nil {
			cerr = err
		}
	}
	for i := 0; i < 200; i++ { // warm the connection and the scratch pool
		call(nil)
	}
	res.set("transport.roundtrip_us", 1e3*medianOf(rec, "transport.roundtrip", 2000, func() { call(nil) }))
	big := make(echo, 1<<20)
	streamMS := medianOf(rec, "transport.stream", 40, func() { call(big) })
	res.set("transport.stream_mb_per_s", 2*float64(len(big))/(1<<20)/(streamMS/1e3))
	if cerr != nil {
		return fmt.Errorf("transport probe: %w", cerr)
	}

	const codecReps = 1 << 18
	var buf []byte
	codecMS := medianOf(rec, "transport.frame_codec", probeReps, func() {
		for i := 0; i < codecReps; i++ {
			buf = transport.Header{Method: 3, Seq: uint64(i), Len: 64}.AppendTo(buf[:0])
			if _, err := transport.DecodeHeader(buf, 0); err != nil {
				cerr = err
			}
		}
	})
	res.set("transport.frame_codec_ns", codecMS*1e6/codecReps)
	return cerr
}
