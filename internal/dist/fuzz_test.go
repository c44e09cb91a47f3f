package dist

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"

	"zskyline/internal/dominance"
	"zskyline/internal/plan"
	"zskyline/internal/point"
	"zskyline/internal/zorder"
)

// shardSkyCorpus is the seed corpus of FuzzShardSkyWire: well-formed
// ShardSkyArgs / ShardSkyReply payloads — delta cursors negative, huge
// and beyond the request's among them, which decode and are the
// worker's and the coordinator's to refuse or read — and each way a
// payload can lie about its own size: cut short (inside a cursor too),
// a count or a frame length announcing more than follows, a frame whose
// header disagrees with its payload.
func shardSkyCorpus(t testing.TB) (good, bad map[string][]byte) {
	t.Helper()
	encode := func(m interface {
		AppendTo([]byte) ([]byte, error)
	}) []byte {
		b, err := m.AppendTo(nil)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	enc, err := zorder.NewEncoder(3, 12, []float64{0, 0, 0}, []float64{1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	blk := point.BlockOf(3, []point.Point{{0.1, 0.2, 0.3}, {0.9, 0.8, 0.7}})
	args := encode(ShardSkyArgs{RuleID: 7, MapVersion: 2, ShardID: 3, Lo: []uint64{1 << 40}, Hi: []uint64{1 << 50}})
	whole := encode(ShardSkyArgs{RuleID: 7, MapVersion: 2, ShardID: 3})
	delta := encode(ShardSkyArgs{RuleID: 7, MapVersion: 2, ShardID: 3, Since: 5})
	reply := encode(ShardSkyReply{Outcome: SkyFolded, Batches: 9,
		Group: plan.Group{Gid: 3, Block: blk, ZCol: enc.EncodeBlock(zorder.ZCol{}, blk)}})
	bare := encode(ShardSkyReply{Group: plan.Group{Gid: 3, Block: blk}}) // no column: flex
	empty := encode(ShardSkyReply{Outcome: SkyCached, Group: plan.Group{Block: point.Block{Dims: 3}}})

	patched := func(b []byte, off int, v uint32) []byte {
		out := append([]byte(nil), b...)
		binary.LittleEndian.PutUint32(out[off:], v)
		return out
	}
	// Reply layout: outcome(1) gid(8) blockLen(4) [dims(4) rows(4) data] zcolLen(4) [words(4) rows(4) data].
	const blockLenAt, blockDimsAt, blockRowsAt = 9, 13, 17
	zcolLenAt := blockLenAt + 4 + 8 + blk.Len()*3*8
	good = map[string][]byte{"args": args, "args-whole": whole, "reply": reply, "reply-bare": bare, "reply-empty": empty,
		"args-delta":           delta,
		"args-cursor-negative": encode(ShardSkyArgs{RuleID: 7, ShardID: 3, Since: -1}),
		"args-cursor-huge":     encode(ShardSkyArgs{RuleID: 7, ShardID: 3, Since: 1 << 62}),
		// Whole skyline: the replica's list ends before the request's cursor 5.
		"reply-cursor-below-request": encode(ShardSkyReply{Outcome: SkyCached, Batches: 2,
			Group: plan.Group{Gid: 3, Block: blk}}),
		"reply-cursor-negative": encode(ShardSkyReply{Batches: -1, Group: plan.Group{Gid: 3, Block: blk}}),
	}
	bad = map[string][]byte{
		"args-truncated":         args[:len(args)-3],
		"args-empty":             nil,
		"args-trailing":          append(append([]byte(nil), args...), 0),
		"args-bound-oversized":   patched(whole, 24, 0xFFFFFFFF), // Lo announces 4G words
		"args-cursor-truncated":  delta[:len(delta)-4],
		"reply-cursor-truncated": reply[:len(reply)-1],
		"reply-cursor-missing":   reply[:len(reply)-8],
		"reply-truncated":        reply[:len(reply)-5],
		"reply-no-group":         reply[:1],
		"reply-trailing":         append(append([]byte(nil), reply...), 1, 2, 3),
		"reply-block-oversized":  patched(reply, blockLenAt, 0xFFFFFFF0),  // frame longer than the payload
		"reply-rows-oversized":   patched(reply, blockRowsAt, 0xFFFFFFFF), // rows the frame does not hold
		"reply-dims-mismatched":  patched(reply, blockDimsAt, 4),          // 4 x 2 floats announced, 3 x 2 sent
		"reply-dims-implausible": patched(reply, blockDimsAt, 1<<21),
		"reply-zcol-oversized":   patched(reply, zcolLenAt, 0x7FFFFFFF),
		"reply-words-mismatched": patched(reply, zcolLenAt+4, 2), // 2-word addresses announced, 1-word sent
	}
	return good, bad
}

// isReply tells which of the two messages a corpus entry is, by its name.
func isReply(name string) bool { return strings.HasPrefix(name, "reply") }

// decodeShardSky decodes data as one of the two messages and, when the
// decoder accepts it, checks what acceptance promises: nothing was
// allocated beyond what the payload itself holds, and encoding the
// message again gives the payload back byte for byte.
func decodeShardSky(t testing.TB, reply bool, data []byte) error {
	t.Helper()
	var (
		out []byte
		err error
	)
	if reply {
		var m ShardSkyReply
		if err = m.DecodeFrom(data); err != nil {
			return err
		}
		if held := len(m.Group.Block.Data)*8 + len(m.Group.ZCol.Data)*8; held > len(data) {
			t.Fatalf("a %d-byte reply decoded into %d bytes of rows and addresses", len(data), held)
		}
		out, err = m.AppendTo(nil)
	} else {
		var m ShardSkyArgs
		if err = m.DecodeFrom(data); err != nil {
			return err
		}
		if held := (len(m.Lo) + len(m.Hi)) * 8; held > len(data) {
			t.Fatalf("a %d-byte request decoded into %d bytes of bounds", len(data), held)
		}
		out, err = m.AppendTo(nil)
	}
	if err != nil {
		t.Fatalf("re-encoding an accepted payload: %v", err)
	}
	if !bytes.Equal(out, data) {
		t.Fatalf("accepted payload does not round-trip:\n in=%x\nout=%x", data, out)
	}
	return nil
}

// TestShardSkyWireCorpus holds the seed corpus to its labels: the
// well-formed payloads decode, every malformed one is an error. A
// replica handed each well-formed request refuses a negative cursor,
// answers one beyond its batch list with the whole skyline, and a
// cursor inside the list with the delta.
func TestShardSkyWireCorpus(t *testing.T) {
	good, bad := shardSkyCorpus(t)
	for name, data := range good {
		if err := decodeShardSky(t, isReply(name), data); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	w, rule := bareWorker(t, 3, 12, plan.ZS, dominance.Descriptor{})
	w.rules[7] = rule
	for i := 0; i < 6; i++ { // six incomparable one-row batches
		bf, zf := shardFrames(t, rule.Encoder(), point.BlockOf(3, []point.Point{{0.05 * float64(i), 0.9 - 0.05*float64(i), 0.5}}))
		if err := w.StoreShard(StoreShardArgs{RuleID: 7, ShardID: 3, BlockFrame: bf, ZFrame: zf}, &StoreShardReply{}); err != nil {
			t.Fatal(err)
		}
	}
	for name, data := range good {
		var args ShardSkyArgs
		if isReply(name) || args.DecodeFrom(data) != nil {
			continue
		}
		var reply ShardSkyReply
		err := w.ShardSkyline(args, &reply)
		switch {
		case args.Since < 0:
			if err == nil {
				t.Errorf("%s: a negative cursor was answered", name)
			}
		case err != nil:
			t.Errorf("%s: %v", name, err)
		case args.Since > reply.Batches && reply.Group.Len() != 6:
			t.Errorf("%s: a cursor beyond the %d batches got %d rows, want the whole skyline", name, reply.Batches, reply.Group.Len())
		case args.Since == 5 && reply.Group.Len() != 1:
			t.Errorf("%s: the delta from batch 5 holds %d rows, want 1", name, reply.Group.Len())
		}
	}
	for name, data := range bad {
		if err := decodeShardSky(t, isReply(name), data); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}

// Message kinds FuzzWireMessages decodes, in its kind byte: the batch
// path's, the shard tier's that carry a batch as raw frames, then the
// control messages — fixed-width fields or an empty payload — and the
// gob-encoded shard inventory.
const (
	kindReduceArgs = iota
	kindReduceReply
	kindLoadRule
	kindStoreShard
	kindStageShard
	kindPullShard
	kindPullShardArgs
	kindCommitShardArgs
	kindDropStagedArgs
	kindDropShardArgs
	kindLoadRuleReply
	kindStoreShardReply
	kindStageShardReply
	kindCommitShardReply
	kindDropStagedReply
	kindDropShardReply
	kindShardStatsArgs
	kindShardStats
	wireKinds
)

// wireMsg is a message with its codec pair.
type wireMsg interface {
	AppendTo([]byte) ([]byte, error)
	DecodeFrom([]byte) error
}

// controlMsgs are the control kinds with a canonical encoding, each with
// one well-formed sample.
var controlMsgs = map[int]func() wireMsg{
	kindPullShardArgs:    func() wireMsg { return &PullShardArgs{ShardID: 3, Cursor: 4, MaxRows: 4096} },
	kindCommitShardArgs:  func() wireMsg { return &CommitShardArgs{ShardID: 3, Epoch: 9, MapVersion: 2} },
	kindDropStagedArgs:   func() wireMsg { return &DropStagedArgs{ShardID: 3, Epoch: 9} },
	kindDropShardArgs:    func() wireMsg { return &DropShardArgs{ShardID: 3, MapVersion: 2} },
	kindLoadRuleReply:    func() wireMsg { return &LoadRuleReply{Cached: true} },
	kindStoreShardReply:  func() wireMsg { return &StoreShardReply{Rows: 1024} },
	kindStageShardReply:  func() wireMsg { return &StageShardReply{Rows: 1024} },
	kindCommitShardReply: func() wireMsg { return &CommitShardReply{Rows: 1024} },
	kindDropStagedReply:  func() wireMsg { return &DropStagedReply{} },
	kindDropShardReply:   func() wireMsg { return &DropShardReply{} },
	kindShardStatsArgs:   func() wireMsg { return &ShardStatsArgs{} },
}

// wireCorpus is the seed corpus of FuzzWireMessages, keyed by message
// kind: well-formed ReduceArgs / ReduceReply / LoadRuleArgs /
// StoreShardArgs / StageShardArgs / PullShardReply payloads, and each way
// a payload can lie about its own size — cut short, trailing bytes, a
// frame length or row count announcing more than follows, a frame whose
// header disagrees with its payload, block and Z frames that disagree
// with each other.
func wireCorpus(t testing.TB) (good, bad map[int]map[string][]byte) {
	t.Helper()
	encode := func(m interface {
		AppendTo([]byte) ([]byte, error)
	}) []byte {
		b, err := m.AppendTo(nil)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	enc, err := zorder.NewEncoder(3, 12, []float64{0, 0, 0}, []float64{1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	blk := point.BlockOf(3, []point.Point{{0.1, 0.2, 0.3}, {0.9, 0.8, 0.7}})
	g := plan.Group{Gid: 3, Block: blk, ZCol: enc.EncodeBlock(zorder.ZCol{}, blk)}
	bare := plan.Group{Gid: 3, Block: blk} // no column: flex
	empty := plan.Group{Block: point.Block{Dims: 3}}
	args := encode(ReduceArgs{RuleID: 7, Group: g})
	reply := encode(ReduceReply{Candidates: g})
	rule := encode(LoadRuleArgs{Rule: RuleBlob{ID: 7,
		Data:   plan.RuleData{Dims: 3, Bits: 12, Mins: []float64{0, 0, 0}, Maxs: []float64{1, 1, 1}, Local: plan.ZS},
		Shards: UniformShardMap(1, 4, 2)}})
	frame := func(m interface{ MarshalBinary() ([]byte, error) }) []byte {
		b, err := m.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	bf, zf := frame(blk), frame(g.ZCol)
	ebf, ezf := frame(empty.Block), frame(zorder.ZCol{Words: 1})
	// One message of a frame-carrying kind around the given frames.
	shardMsg := func(kind int, bf, zf []byte) []byte {
		switch kind {
		case kindStoreShard:
			return encode(StoreShardArgs{RuleID: 7, MapVersion: 2, ShardID: 3, BlockFrame: bf, ZFrame: zf})
		case kindStageShard:
			return encode(StageShardArgs{ShardID: 3, Epoch: 9, BlockFrame: bf, ZFrame: zf})
		}
		return encode(PullShardReply{Rows: blk.Len(), Next: 4, Done: true, BlockFrame: bf, ZFrame: zf})
	}
	// Where each such kind's block frame length sits: after the rule ID,
	// map version and shard ID; the shard ID and epoch; or the row count,
	// cursor and done flag.
	framesAt := map[int]int{kindStoreShard: 24, kindStageShard: 16, kindPullShard: 17}

	patched := func(b []byte, off int, v uint32) []byte {
		out := append([]byte(nil), b...)
		binary.LittleEndian.PutUint32(out[off:], v)
		return out
	}
	// ReduceArgs lead with an 8-byte rule ID, then both messages carry one
	// group: gid(8) blockLen(4) [dims(4) rows(4) data] zcolLen(4) [words(4) rows(4) data].
	// The shard messages carry the same two length-prefixed frames.
	lies := func(b []byte, blockLenAt int) map[string][]byte {
		zcolLenAt := blockLenAt + 4 + 8 + blk.Len()*3*8
		return map[string][]byte{
			"truncated":         b[:len(b)-5],
			"no-frames":         b[:blockLenAt],
			"trailing":          append(append([]byte(nil), b...), 1, 2, 3),
			"block-oversized":   patched(b, blockLenAt, 0xFFFFFFF0),   // frame longer than the payload
			"rows-oversized":    patched(b, blockLenAt+8, 0xFFFFFFFF), // rows the frame does not hold
			"dims-mismatched":   patched(b, blockLenAt+4, 4),          // 4 x 2 floats announced, 3 x 2 sent
			"dims-implausible":  patched(b, blockLenAt+4, 1<<21),
			"zcol-oversized":    patched(b, zcolLenAt, 0x7FFFFFFF),
			"words-mismatched":  patched(b, zcolLenAt+4, 2), // 2-word addresses announced, 1-word sent
			"zcol-rows-too-few": patched(b, zcolLenAt+8, 1),
		}
	}
	good = map[int]map[string][]byte{
		kindReduceArgs: {"args": args, "args-bare": encode(ReduceArgs{RuleID: 7, Group: bare}),
			"args-empty": encode(ReduceArgs{Group: empty})},
		kindReduceReply: {"reply": reply, "reply-bare": encode(ReduceReply{Candidates: bare}),
			"reply-empty": encode(ReduceReply{Candidates: empty})},
		kindLoadRule: {"rule": rule},
	}
	bad = map[int]map[string][]byte{
		kindReduceArgs:  lies(args, 16),
		kindReduceReply: lies(reply, 8),
		kindLoadRule: {"truncated": rule[:len(rule)/2], "empty": nil,
			"trailing": append(append([]byte(nil), rule...), 0), "garbage": []byte("not a gob stream")},
	}
	one := blk.Slice(0, 1)
	for kind, at := range framesAt {
		good[kind] = map[string][]byte{"batch": shardMsg(kind, bf, zf),
			"seed": shardMsg(kind, nil, nil), "empty": shardMsg(kind, ebf, ezf)}
		bad[kind] = lies(shardMsg(kind, bf, zf), at)
		bad[kind]["frames-disagree"] = shardMsg(kind, bf, frame(enc.EncodeBlock(zorder.ZCol{}, one)))
		bad[kind]["block-only"] = shardMsg(kind, bf, nil)
		bad[kind]["zcol-only"] = shardMsg(kind, nil, zf)
	}
	done := shardMsg(kindPullShard, bf, zf)
	done[framesAt[kindPullShard]-1] = 2 // a bool byte no encoder writes
	bad[kindPullShard]["done-not-bool"] = done
	for kind, sample := range controlMsgs {
		msg := encode(sample())
		good[kind] = map[string][]byte{"msg": msg}
		bad[kind] = map[string][]byte{"trailing": append(append([]byte(nil), msg...), 0)}
		if len(msg) > 0 {
			bad[kind]["truncated"] = msg[:len(msg)-1]
		}
	}
	bad[kindLoadRuleReply]["not-bool"] = []byte{2}
	stats := encode(ShardStatsReply{MapVersion: 2, Rows: map[int]int64{0: 7312, 3: 12},
		SkylineRows: map[int]int64{0: 1840}})
	good[kindShardStats] = map[string][]byte{"stats": stats, "empty-maps": encode(ShardStatsReply{})}
	bad[kindShardStats] = map[string][]byte{"truncated": stats[:len(stats)/2], "empty": nil,
		"trailing": append(append([]byte(nil), stats...), 0), "garbage": []byte("not a gob stream")}
	return good, bad
}

// decodeWire decodes data as the message of the given kind — for a shard
// message, also its raw frames, as the worker does — and, when the
// decoders accept a hand-written frame, checks what acceptance promises:
// nothing was allocated beyond what the payload itself holds, and
// encoding the message again gives the payload back byte for byte.
func decodeWire(t testing.TB, kind int, data []byte) error {
	t.Helper()
	var g plan.Group
	var frames [][]byte // a shard message's block and Z frames, still raw
	var m interface {
		AppendTo([]byte) ([]byte, error)
	}
	switch kind {
	case kindReduceArgs:
		var a ReduceArgs
		if err := a.DecodeFrom(data); err != nil {
			return err
		}
		g, m = a.Group, a
	case kindReduceReply:
		var a ReduceReply
		if err := a.DecodeFrom(data); err != nil {
			return err
		}
		g, m = a.Candidates, a
	case kindStoreShard:
		var a StoreShardArgs
		if err := a.DecodeFrom(data); err != nil {
			return err
		}
		frames, m = [][]byte{a.BlockFrame, a.ZFrame}, a
	case kindStageShard:
		var a StageShardArgs
		if err := a.DecodeFrom(data); err != nil {
			return err
		}
		frames, m = [][]byte{a.BlockFrame, a.ZFrame}, a
	case kindPullShard:
		var a PullShardReply
		if err := a.DecodeFrom(data); err != nil {
			return err
		}
		frames, m = [][]byte{a.BlockFrame, a.ZFrame}, a
	case kindShardStats:
		var a ShardStatsReply
		return a.DecodeFrom(data) // gob: not canonical, so no round trip
	case kindLoadRule:
		var a LoadRuleArgs
		return a.DecodeFrom(data)
	default:
		a := controlMsgs[kind]()
		if err := a.DecodeFrom(data); err != nil {
			return err
		}
		m = a
	}
	if frames != nil {
		if held := len(frames[0]) + len(frames[1]); held > len(data) {
			t.Fatalf("a %d-byte payload decoded into %d bytes of frames", len(data), held)
		}
		var err error
		if g, err = decodeShardFrames(3, frames[0], frames[1]); err != nil {
			return err
		}
	}
	if held := len(g.Block.Data)*8 + len(g.ZCol.Data)*8; held > len(data) {
		t.Fatalf("a %d-byte payload decoded into %d bytes of rows and addresses", len(data), held)
	}
	out, err := m.AppendTo(nil)
	if err != nil {
		t.Fatalf("re-encoding an accepted payload: %v", err)
	}
	if !bytes.Equal(out, data) {
		t.Fatalf("accepted payload does not round-trip:\n in=%x\nout=%x", data, out)
	}
	return nil
}

// TestWireMessagesCorpus holds the batch-path seed corpus to its labels:
// the well-formed payloads decode, every malformed one is an error.
func TestWireMessagesCorpus(t *testing.T) {
	good, bad := wireCorpus(t)
	for kind, corpus := range good {
		for name, data := range corpus {
			if err := decodeWire(t, kind, data); err != nil {
				t.Errorf("kind %d %s: %v", kind, name, err)
			}
		}
	}
	for kind, corpus := range bad {
		for name, data := range corpus {
			if err := decodeWire(t, kind, data); err == nil {
				t.Errorf("kind %d %s: decoded without error", kind, name)
			}
		}
	}
}

// FuzzWireMessages throws arbitrary bytes at the decoders a batch query
// runs — the ReduceGroup request and reply and the rule broadcast — at
// the shard tier's batch carriers: the StoreShard and StageShard
// requests and the PullShard reply, with the block and Z frames inside
// them decoded as the worker decodes them — and at every control
// message: the pull, commit and drop requests, the small replies and
// the shard inventory. Each must turn truncated, oversized-count and mismatched-width input into
// an error — never a panic, and never an allocation sized by a length
// field the payload does not back.
func FuzzWireMessages(f *testing.F) {
	good, bad := wireCorpus(f)
	for _, corpus := range []map[int]map[string][]byte{good, bad} {
		for kind, msgs := range corpus {
			for _, data := range msgs {
				f.Add(uint8(kind), data)
			}
		}
	}
	f.Fuzz(func(t *testing.T, kind uint8, data []byte) {
		_ = decodeWire(t, int(kind)%wireKinds, data) // a rejection is a fine outcome
	})
}

// FuzzShardSkyWire throws arbitrary bytes at the two decoders on the
// cluster read path. The reply is the only large payload a query
// receives, so its decoder must turn truncated, oversized-count and
// mismatched-width input into an error — never a panic, and never an
// allocation sized by a length field the payload does not back.
func FuzzShardSkyWire(f *testing.F) {
	good, bad := shardSkyCorpus(f)
	for _, corpus := range []map[string][]byte{good, bad} {
		for name, data := range corpus {
			f.Add(isReply(name), data)
		}
	}
	f.Fuzz(func(t *testing.T, reply bool, data []byte) {
		_ = decodeShardSky(t, reply, data) // a rejection is a fine outcome
	})
}
