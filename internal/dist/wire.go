package dist

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"strings"

	"zskyline/internal/plan"
)

// ---- method registry ----
//
// The framed transport addresses calls by numeric method id; everything
// above it — metric labels, fault-plan specs, event routes, error
// messages — keeps the stable "Worker.X" names. This table is the only
// place the two meet.

const (
	mPing uint16 = iota + 1
	mLoadRule
	_ // 3 was the retired per-chunk map call; reserved so the ids after it never shift
	_ // 4 was Worker.ReduceGroup answering with whole candidate groups; reserved likewise
	_ // 5 was Worker.MergeGroups; reserved likewise
	mStoreShard
	mShardSkyline
	mPullShard
	mStageShard
	mCommitShard
	mDropStaged
	mDropShard
	mShardStats
	mReduceGroup // answers with row positions (ReduceRowsReply)
)

var methodNames = map[uint16]string{
	mPing:         "Worker.Ping",
	mLoadRule:     "Worker.LoadRule",
	mReduceGroup:  "Worker.ReduceGroup",
	mStoreShard:   "Worker.StoreShard",
	mShardSkyline: "Worker.ShardSkyline",
	mPullShard:    "Worker.PullShard",
	mStageShard:   "Worker.StageShard",
	mCommitShard:  "Worker.CommitShard",
	mDropStaged:   "Worker.DropStaged",
	mDropShard:    "Worker.DropShard",
	mShardStats:   "Worker.ShardStats",
}

var methodIDs = func() map[string]uint16 {
	m := make(map[string]uint16, len(methodNames))
	for id, name := range methodNames {
		m[name] = id
	}
	return m
}()

// methodID resolves a "Worker.X" name to its wire id.
func methodID(name string) (uint16, error) {
	id, ok := methodIDs[name]
	if !ok {
		return 0, fmt.Errorf("%w %q", errUnknownMethod, name)
	}
	return id, nil
}

// errUnknownMethod marks a call to a method name or id outside the
// registry — a caller bug (or a peer from another release), classified
// fatal so it is never retried.
var errUnknownMethod = errors.New("dist: unknown rpc method")

// methodName resolves a wire id back to its "Worker.X" name.
func methodName(id uint16) string {
	if name, ok := methodNames[id]; ok {
		return name
	}
	return fmt.Sprintf("Worker.#%d", id)
}

// shortMethodName strips the service prefix — the form worker metric
// labels have always used.
func shortMethodName(id uint16) string {
	return strings.TrimPrefix(methodName(id), "Worker.")
}

// ---- payload encoding primitives ----
//
// Wire types encode to flat little-endian frames by appending onto the
// transport's shared scratch buffer: fixed-width integers, 1-byte
// bools, u32-length-prefixed byte strings, and u32-count-prefixed
// uint64 slices (count 0 decodes to nil — the "no bound" marker
// ShardSkyArgs leans on). Block and ZCol travel as their existing
// binary frames, length-prefixed when they are not the payload's tail.

func appendU32(dst []byte, v uint32) []byte {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	return append(dst, b[:]...)
}

func appendU64(dst []byte, v uint64) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	return append(dst, b[:]...)
}

func appendI64(dst []byte, v int64) []byte { return appendU64(dst, uint64(v)) }

func appendBool(dst []byte, v bool) []byte {
	if v {
		return append(dst, 1)
	}
	return append(dst, 0)
}

func appendBytes(dst, b []byte) []byte {
	dst = appendU32(dst, uint32(len(b)))
	return append(dst, b...)
}

func appendU64s(dst []byte, v []uint64) []byte {
	dst = appendU32(dst, uint32(len(v)))
	for _, w := range v {
		dst = appendU64(dst, w)
	}
	return dst
}

// appendBlockFrame appends a length-prefixed point.Block frame.
func appendBlockFrame(dst []byte, b interface {
	AppendBinary(dst []byte) ([]byte, error)
}) ([]byte, error) {
	off := len(dst)
	dst = append(dst, 0, 0, 0, 0)
	dst, err := b.AppendBinary(dst)
	if err != nil {
		return dst, err
	}
	binary.LittleEndian.PutUint32(dst[off:off+4], uint32(len(dst)-off-4))
	return dst, nil
}

// appendGroup appends one plan.Group: gid, then its length-prefixed
// block and Z-column frames.
func appendGroup(dst []byte, g plan.Group) ([]byte, error) {
	dst = appendI64(dst, int64(g.Gid))
	dst, err := appendBlockFrame(dst, g.Block)
	if err != nil {
		return dst, err
	}
	return appendBlockFrame(dst, g.ZCol)
}

// wireReader is a cursor over one payload frame. The first decode
// failure sticks; callers check done() once at the end instead of
// threading errors through every field read.
type wireReader struct {
	b   []byte
	err error
}

func (r *wireReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
}

func (r *wireReader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if len(r.b) < n {
		r.fail("dist: payload truncated: want %d bytes, have %d", n, len(r.b))
		return nil
	}
	out := r.b[:n]
	r.b = r.b[n:]
	return out
}

func (r *wireReader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (r *wireReader) u64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (r *wireReader) i64() int64 { return int64(r.u64()) }

// bool reads a 1-byte bool; any byte but 0 or 1 is malformed, since an
// encoder never writes one.
func (r *wireReader) bool() bool {
	b := r.take(1)
	if b != nil && b[0] > 1 {
		r.fail("dist: bool byte is %d", b[0])
	}
	return b != nil && b[0] == 1
}

// bytes reads a u32-length-prefixed byte string, copied out of the
// frame (decode buffers are reused). Length 0 decodes to nil.
func (r *wireReader) bytes() []byte {
	n := int(r.u32())
	b := r.take(n)
	if b == nil || n == 0 {
		return nil
	}
	return append([]byte(nil), b...)
}

// u64s reads a u32-count-prefixed uint64 slice; count 0 decodes to nil.
func (r *wireReader) u64s() []uint64 {
	n := int(r.u32())
	b := r.take(n * 8)
	if b == nil || n == 0 {
		return nil
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = binary.LittleEndian.Uint64(b[i*8:])
	}
	return out
}

// group reads one appendGroup frame.
func (r *wireReader) group() plan.Group {
	var g plan.Group
	g.Gid = int(r.i64())
	if b := r.take(int(r.u32())); b != nil {
		if err := g.Block.UnmarshalBinary(b); err != nil {
			r.fail("dist: group block frame: %v", err)
		}
	}
	if b := r.take(int(r.u32())); b != nil {
		if err := g.ZCol.UnmarshalBinary(b); err != nil {
			r.fail("dist: group zcol frame: %v", err)
		}
	}
	return g
}

// rest consumes the remainder of the payload — for types whose final
// field is a single self-delimiting frame.
func (r *wireReader) rest() []byte {
	out := r.b
	r.b = nil
	return out
}

// done returns the sticky decode error, or complains about trailing
// bytes a correct encoder would never leave.
func (r *wireReader) done() error {
	if r.err != nil {
		return r.err
	}
	if len(r.b) != 0 {
		return fmt.Errorf("dist: payload has %d trailing bytes", len(r.b))
	}
	return nil
}

// gobAppend is the escape hatch for the few small control structs whose
// shape (maps, nested descriptors) is not worth a hand-rolled frame:
// the rule broadcast and the stats inventory. Reflection cost there is
// irrelevant — they are rare, tiny, off the data plane.
func gobAppend(dst []byte, v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return dst, err
	}
	return append(dst, buf.Bytes()...), nil
}

// gobDecode decodes the one gob value data holds; like the hand-written
// decoders it refuses trailing bytes a correct encoder would never leave.
func gobDecode(data []byte, v any) error {
	r := bytes.NewReader(data)
	if err := gob.NewDecoder(r).Decode(v); err != nil {
		return err
	}
	if r.Len() != 0 {
		return fmt.Errorf("dist: payload has %d trailing bytes", r.Len())
	}
	return nil
}

// ---- per-type encoders ----
//
// AppendTo/DecodeFrom pair each wire type with its payload frame; the
// transport client and server call them against the shared scratch
// arena. Field order is the wire contract — changing it is a protocol
// break.

// AppendTo encodes an empty payload.
func (PingArgs) AppendTo(dst []byte) ([]byte, error) { return dst, nil }

// DecodeFrom checks the payload is empty.
func (*PingArgs) DecodeFrom(data []byte) error {
	if len(data) != 0 {
		return fmt.Errorf("dist: ping args carry %d bytes", len(data))
	}
	return nil
}

// AppendTo encodes the worker address as the raw payload.
func (p PingReply) AppendTo(dst []byte) ([]byte, error) {
	return append(dst, p.Addr...), nil
}

// DecodeFrom decodes the worker address.
func (p *PingReply) DecodeFrom(data []byte) error {
	p.Addr = string(data)
	return nil
}

// AppendTo encodes the rule broadcast via gob (the control-struct
// escape hatch: RuleData holds a dominance descriptor, the shard map
// nested slices, and a broadcast happens once per query, not per group).
func (a LoadRuleArgs) AppendTo(dst []byte) ([]byte, error) { return gobAppend(dst, &a) }

// DecodeFrom decodes the rule broadcast.
func (a *LoadRuleArgs) DecodeFrom(data []byte) error { return gobDecode(data, a) }

// AppendTo encodes the cached flag.
func (a LoadRuleReply) AppendTo(dst []byte) ([]byte, error) {
	return appendBool(dst, a.Cached), nil
}

// DecodeFrom decodes the cached flag.
func (a *LoadRuleReply) DecodeFrom(data []byte) error {
	r := wireReader{b: data}
	a.Cached = r.bool()
	return r.done()
}

// AppendTo encodes the rule ID and the chunk's block frame (the
// payload's tail, so no length prefix).
func (a MapArgs) AppendTo(dst []byte) ([]byte, error) {
	dst = appendU64(dst, a.RuleID)
	return a.Block.AppendBinary(dst)
}

// DecodeFrom decodes a map chunk.
func (a *MapArgs) DecodeFrom(data []byte) error {
	r := wireReader{b: data}
	a.RuleID = r.u64()
	rest := r.rest()
	if err := r.done(); err != nil {
		return err
	}
	return a.Block.UnmarshalBinary(rest)
}

// AppendTo encodes the rule ID and the group to reduce.
func (a ReduceArgs) AppendTo(dst []byte) ([]byte, error) {
	dst = appendU64(dst, a.RuleID)
	return appendGroup(dst, a.Group)
}

// DecodeFrom decodes reduce arguments.
func (a *ReduceArgs) DecodeFrom(data []byte) error {
	r := wireReader{b: data}
	a.RuleID = r.u64()
	a.Group = r.group()
	return r.done()
}

// AppendTo encodes the positions: a u32 count, then one u32 each.
func (a ReduceRowsReply) AppendTo(dst []byte) ([]byte, error) {
	dst = appendU32(dst, uint32(len(a.Rows)))
	for _, r := range a.Rows {
		dst = appendU32(dst, uint32(r))
	}
	return dst, nil
}

// DecodeFrom decodes the positions. The count must be exactly what the
// payload holds, checked before anything is allocated; a position is
// vetted against the group it indexes by the caller, which holds it.
// A payload that is not a positions list is errBadReduceReply: the
// worker speaks another protocol, and would again.
func (a *ReduceRowsReply) DecodeFrom(data []byte) error {
	a.Rows = nil
	if len(data) < 4 || uint64(len(data)-4) != 4*uint64(binary.LittleEndian.Uint32(data)) {
		return fmt.Errorf("%w: %d payload bytes are not a count and its positions", errBadReduceReply, len(data))
	}
	if n := (len(data) - 4) / 4; n > 0 {
		a.Rows = make([]int32, n)
		for i := range a.Rows {
			a.Rows[i] = int32(binary.LittleEndian.Uint32(data[4+4*i:]))
		}
	}
	return nil
}

// AppendTo encodes the reduced candidates.
func (a ReduceReply) AppendTo(dst []byte) ([]byte, error) {
	return appendGroup(dst, a.Candidates)
}

// DecodeFrom decodes a reduce reply.
func (a *ReduceReply) DecodeFrom(data []byte) error {
	r := wireReader{b: data}
	a.Candidates = r.group()
	return r.done()
}

// AppendTo encodes the rule ID and the merge task's groups.
func (a MergeArgs) AppendTo(dst []byte) ([]byte, error) {
	dst = appendU64(dst, a.RuleID)
	dst = appendU32(dst, uint32(len(a.Groups)))
	var err error
	for _, g := range a.Groups {
		if dst, err = appendGroup(dst, g); err != nil {
			return dst, err
		}
	}
	return dst, nil
}

// DecodeFrom decodes merge arguments.
func (a *MergeArgs) DecodeFrom(data []byte) error {
	r := wireReader{b: data}
	a.RuleID = r.u64()
	n := int(r.u32())
	a.Groups = nil
	for i := 0; i < n && r.err == nil; i++ {
		a.Groups = append(a.Groups, r.group())
	}
	return r.done()
}

// AppendTo encodes a shard store batch; the block/Z frames are shipped
// verbatim, length-prefixed.
func (a StoreShardArgs) AppendTo(dst []byte) ([]byte, error) {
	dst = appendU64(dst, a.RuleID)
	dst = appendU64(dst, a.MapVersion)
	dst = appendI64(dst, int64(a.ShardID))
	dst = appendBytes(dst, a.BlockFrame)
	return appendBytes(dst, a.ZFrame), nil
}

// DecodeFrom decodes a shard store batch.
func (a *StoreShardArgs) DecodeFrom(data []byte) error {
	r := wireReader{b: data}
	a.RuleID = r.u64()
	a.MapVersion = r.u64()
	a.ShardID = int(r.i64())
	a.BlockFrame = r.bytes()
	a.ZFrame = r.bytes()
	return r.done()
}

// AppendTo encodes the replica's resident row count.
func (a StoreShardReply) AppendTo(dst []byte) ([]byte, error) {
	return appendI64(dst, int64(a.Rows)), nil
}

// DecodeFrom decodes a store acknowledgment.
func (a *StoreShardReply) DecodeFrom(data []byte) error {
	r := wireReader{b: data}
	a.Rows = int(r.i64())
	return r.done()
}

// AppendTo encodes a shard skyline request; empty bounds encode as
// count 0 and decode back to nil ("the curve's ends").
func (a ShardSkyArgs) AppendTo(dst []byte) ([]byte, error) {
	dst = appendU64(dst, a.RuleID)
	dst = appendU64(dst, a.MapVersion)
	dst = appendI64(dst, int64(a.ShardID))
	dst = appendU64s(dst, a.Lo)
	dst = appendU64s(dst, a.Hi)
	return appendI64(dst, int64(a.Since)), nil
}

// DecodeFrom decodes a shard skyline request.
func (a *ShardSkyArgs) DecodeFrom(data []byte) error {
	r := wireReader{b: data}
	a.RuleID = r.u64()
	a.MapVersion = r.u64()
	a.ShardID = int(r.i64())
	a.Lo = r.u64s()
	a.Hi = r.u64s()
	a.Since = int(r.i64())
	return r.done()
}

// AppendTo encodes the outcome byte, the shard-local skyline, then the
// batch count it covers.
func (a ShardSkyReply) AppendTo(dst []byte) ([]byte, error) {
	dst, err := appendGroup(append(dst, byte(a.Outcome)), a.Group)
	return appendI64(dst, int64(a.Batches)), err
}

// DecodeFrom decodes a shard skyline reply.
func (a *ShardSkyReply) DecodeFrom(data []byte) error {
	r := wireReader{b: data}
	if b := r.take(1); b != nil {
		a.Outcome = SkyOutcome(b[0])
	}
	a.Group = r.group()
	a.Batches = int(r.i64())
	return r.done()
}

// AppendTo encodes a pull request.
func (a PullShardArgs) AppendTo(dst []byte) ([]byte, error) {
	dst = appendI64(dst, int64(a.ShardID))
	dst = appendI64(dst, int64(a.Cursor))
	return appendI64(dst, int64(a.MaxRows)), nil
}

// DecodeFrom decodes a pull request.
func (a *PullShardArgs) DecodeFrom(data []byte) error {
	r := wireReader{b: data}
	a.ShardID = int(r.i64())
	a.Cursor = int(r.i64())
	a.MaxRows = int(r.i64())
	return r.done()
}

// AppendTo encodes one pulled batch.
func (a PullShardReply) AppendTo(dst []byte) ([]byte, error) {
	dst = appendI64(dst, int64(a.Rows))
	dst = appendI64(dst, int64(a.Next))
	dst = appendBool(dst, a.Done)
	dst = appendBytes(dst, a.BlockFrame)
	return appendBytes(dst, a.ZFrame), nil
}

// DecodeFrom decodes one pulled batch.
func (a *PullShardReply) DecodeFrom(data []byte) error {
	r := wireReader{b: data}
	a.Rows = int(r.i64())
	a.Next = int(r.i64())
	a.Done = r.bool()
	a.BlockFrame = r.bytes()
	a.ZFrame = r.bytes()
	return r.done()
}

// AppendTo encodes a staging append.
func (a StageShardArgs) AppendTo(dst []byte) ([]byte, error) {
	dst = appendI64(dst, int64(a.ShardID))
	dst = appendU64(dst, a.Epoch)
	dst = appendBytes(dst, a.BlockFrame)
	return appendBytes(dst, a.ZFrame), nil
}

// DecodeFrom decodes a staging append.
func (a *StageShardArgs) DecodeFrom(data []byte) error {
	r := wireReader{b: data}
	a.ShardID = int(r.i64())
	a.Epoch = r.u64()
	a.BlockFrame = r.bytes()
	a.ZFrame = r.bytes()
	return r.done()
}

// AppendTo encodes the staged row count.
func (a StageShardReply) AppendTo(dst []byte) ([]byte, error) {
	return appendI64(dst, int64(a.Rows)), nil
}

// DecodeFrom decodes a staging acknowledgment.
func (a *StageShardReply) DecodeFrom(data []byte) error {
	r := wireReader{b: data}
	a.Rows = int(r.i64())
	return r.done()
}

// AppendTo encodes a commit request.
func (a CommitShardArgs) AppendTo(dst []byte) ([]byte, error) {
	dst = appendI64(dst, int64(a.ShardID))
	dst = appendU64(dst, a.Epoch)
	return appendU64(dst, a.MapVersion), nil
}

// DecodeFrom decodes a commit request.
func (a *CommitShardArgs) DecodeFrom(data []byte) error {
	r := wireReader{b: data}
	a.ShardID = int(r.i64())
	a.Epoch = r.u64()
	a.MapVersion = r.u64()
	return r.done()
}

// AppendTo encodes the committed row count.
func (a CommitShardReply) AppendTo(dst []byte) ([]byte, error) {
	return appendI64(dst, int64(a.Rows)), nil
}

// DecodeFrom decodes a commit acknowledgment.
func (a *CommitShardReply) DecodeFrom(data []byte) error {
	r := wireReader{b: data}
	a.Rows = int(r.i64())
	return r.done()
}

// AppendTo encodes a stage discard.
func (a DropStagedArgs) AppendTo(dst []byte) ([]byte, error) {
	dst = appendI64(dst, int64(a.ShardID))
	return appendU64(dst, a.Epoch), nil
}

// DecodeFrom decodes a stage discard.
func (a *DropStagedArgs) DecodeFrom(data []byte) error {
	r := wireReader{b: data}
	a.ShardID = int(r.i64())
	a.Epoch = r.u64()
	return r.done()
}

// AppendTo encodes an empty payload.
func (DropStagedReply) AppendTo(dst []byte) ([]byte, error) { return dst, nil }

// DecodeFrom checks the payload is empty.
func (*DropStagedReply) DecodeFrom(data []byte) error {
	if len(data) != 0 {
		return fmt.Errorf("dist: drop-staged reply carries %d bytes", len(data))
	}
	return nil
}

// AppendTo encodes a shard drop.
func (a DropShardArgs) AppendTo(dst []byte) ([]byte, error) {
	dst = appendI64(dst, int64(a.ShardID))
	return appendU64(dst, a.MapVersion), nil
}

// DecodeFrom decodes a shard drop.
func (a *DropShardArgs) DecodeFrom(data []byte) error {
	r := wireReader{b: data}
	a.ShardID = int(r.i64())
	a.MapVersion = r.u64()
	return r.done()
}

// AppendTo encodes an empty payload.
func (DropShardReply) AppendTo(dst []byte) ([]byte, error) { return dst, nil }

// DecodeFrom checks the payload is empty.
func (*DropShardReply) DecodeFrom(data []byte) error {
	if len(data) != 0 {
		return fmt.Errorf("dist: drop-shard reply carries %d bytes", len(data))
	}
	return nil
}

// AppendTo encodes an empty payload.
func (ShardStatsArgs) AppendTo(dst []byte) ([]byte, error) { return dst, nil }

// DecodeFrom checks the payload is empty.
func (*ShardStatsArgs) DecodeFrom(data []byte) error {
	if len(data) != 0 {
		return fmt.Errorf("dist: shard-stats args carry %d bytes", len(data))
	}
	return nil
}

// AppendTo encodes the stats inventory via gob (control-struct escape
// hatch: it is a map keyed by shard ID, read by admin tooling, never on
// the data plane).
func (a ShardStatsReply) AppendTo(dst []byte) ([]byte, error) { return gobAppend(dst, &a) }

// DecodeFrom decodes the stats inventory.
func (a *ShardStatsReply) DecodeFrom(data []byte) error { return gobDecode(data, a) }
