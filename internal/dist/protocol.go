// Package dist executes the paper's three-phase pipeline across real
// processes: a coordinator and N workers that speak the framed binary
// protocol of internal/transport over TCP. Every wire type below
// carries its own AppendTo/DecodeFrom pair, so bulk payloads (point
// blocks, Z-address columns, shard frames) travel as the same flat
// little-endian arrays they occupy in memory; only the two
// control structs with maps inside (the rule blob, the shard-stats
// report) ride an embedded gob payload. It is the share-*nothing*
// deployment of the same phase logic internal/plan defines — phase 1
// happens on the coordinator (master node); so does phase 2's map,
// which filters and routes every row before any of it is shipped, so
// each group's survivors cross the wire once to a worker's reduce; and
// phase 3's Z-merge runs on the coordinator, where the reduce replies
// land: the paper's single merge reducer (Figure 5) without a second
// trip over the wire.
//
// Workers are stateful only in that they cache the broadcast
// partitioning rule (the distributed-cache step of Algorithm 3) keyed
// by a rule ID, so repeated jobs pay the broadcast once.
//
// # Fault tolerance
//
// The coordinator assumes workers fail: every RPC runs under a policy
// of per-attempt deadlines, bounded retries with jittered exponential
// backoff, and failover, with errors classified as retryable
// (transport casualties: conn reset, timeout, transport.ErrShutdown) or
// fatal (worker verdicts: bad rule, dims mismatch). Worker liveness is
// a state machine — live → suspect → dead → resurrecting — where
// suspect/dead workers are re-dialed every RedialInterval and rejoin
// the task rotation only after a ping and a re-broadcast of the
// current rule succeed, so a restarted worker process serves
// correctly. Straggling reduce calls can be hedged on a second
// worker. A query fails with ErrClusterDown only once every worker is
// confirmed dead. FaultPlan injects deterministic delay/drop/sever
// faults for tests and chaos drills. docs/OPERATIONS.md is the
// operator-facing guide to all of this.
package dist

import (
	"zskyline/internal/plan"
	"zskyline/internal/point"
)

// RuleBlob is the serialized phase-1 rule broadcast to every worker:
// everything a reducer needs to compute a group's local skyline.
type RuleBlob struct {
	// ID identifies the rule so workers can cache it across calls.
	ID uint64
	// Data is the backend-agnostic reduce half of the rule (encoder
	// bounds, algorithms, dominance relation).
	Data plan.RuleData
	// Shards, when non-empty, is the sharded tier's ownership table
	// riding the broadcast. Workers install it before the rule-cache
	// check, so a map revision reaches workers even when the rule
	// itself is already cached, and resurrection (which re-broadcasts
	// the last blob) re-installs current ownership on restarted
	// processes for free.
	Shards ShardMap
}

// LoadRuleArgs asks a worker to install a rule.
type LoadRuleArgs struct {
	Rule RuleBlob
}

// LoadRuleReply acknowledges installation.
type LoadRuleReply struct {
	Cached bool // true if the worker already had this rule
}

// MapArgs carried one input chunk to the retired map RPC (method id 3).
// No call sends it any more; bench/layers.go, which still times its
// codec, is its last user.
type MapArgs struct {
	RuleID uint64
	Block  point.Block
}

// GroupPoints is a group's worth of routed points or candidates.
type GroupPoints = plan.Group

// ReduceArgs carries all of one group's routed rows, with their
// Z-address column, for the per-group skyline (phase 2 reduce).
type ReduceArgs struct {
	RuleID uint64
	Group  GroupPoints
}

// ReduceRowsReply answers a ReduceGroup call with the group's skyline
// as positions into the group it was sent, in the kernel's output
// order. The coordinator still holds every row it sent, so it rebuilds
// the candidates from its own copy (plan.Rule.Candidates) and no row
// crosses the wire twice.
type ReduceRowsReply struct {
	Rows []int32
}

// ReduceReply carried a group's candidates back as a whole group, rows
// and Z-addresses, in the reply of the retired method id 4. No call
// sends it any more; bench/layers.go, which still times its codec, is
// its last user.
type ReduceReply struct {
	Candidates GroupPoints
}

// MergeArgs carried candidate groups to the retired merge RPC (method
// id 5). No call sends it any more; bench/layers.go, which still times
// its codec, is its last user.
type MergeArgs struct {
	RuleID uint64
	Groups []GroupPoints
}

// PingArgs/PingReply support liveness checks.
type PingArgs struct{}

// PingReply reports worker identity.
type PingReply struct {
	Addr string
}

// ---- sharded-tier wire types ----
//
// The shard data plane ships raw block frames ([]byte produced by
// point.Block.MarshalBinary and zorder.ZCol.MarshalBinary) instead of
// the typed values: gob then moves one opaque byte slice per call, and
// the handoff can forward the exact frames it pulled from the source
// to the staging targets without a decode/re-encode round trip.

// StoreShardArgs appends one routed insert batch to a shard replica.
// Nil frames are legal and store nothing — the residency seed a new
// cluster (or a committed handoff target) uses to mark a shard served
// here even before its first insert.
type StoreShardArgs struct {
	// RuleID names the cluster rule the shard computes under.
	RuleID uint64
	// MapVersion is the coordinator's shard-map version at routing
	// time; workers fold it into their installed version.
	MapVersion uint64
	// ShardID is the stable shard identifier.
	ShardID int
	// BlockFrame is the batch's point.Block frame; ZFrame its
	// zorder.ZCol frame, one address per block row.
	BlockFrame []byte
	ZFrame     []byte
}

// StoreShardReply acknowledges a store with the replica's new resident
// row count for the shard.
type StoreShardReply struct {
	Rows int
}

// ShardSkyArgs asks a replica for the skyline of its resident shard
// data, optionally restricted to the Z-range [Lo, Hi) (nil bounds mean
// the curve's ends). A worker that does not hold the shard answers
// "not resident", which the coordinator classifies as shard-moved and
// answers by refreshing its map snapshot and re-routing.
type ShardSkyArgs struct {
	RuleID     uint64
	MapVersion uint64
	ShardID    int
	Lo, Hi     []uint64
	// Since, when positive, asks a whole-shard Pareto query for a delta:
	// only the skyline rows that came from batches Since and later, the
	// batches the caller has not merged yet. 0 asks for the whole skyline.
	Since int
}

// ShardSkyReply returns the shard-local skyline as one group (Gid =
// shard ID), and how the replica produced it. The rows travel without
// their Z-address column: the coordinator encodes them itself, so a
// column cannot disagree with its rows.
type ShardSkyReply struct {
	Group   GroupPoints
	Outcome SkyOutcome
	// Batches is how many of the shard's batches the replica's skyline
	// covered when it answered a whole-shard query (0 for ranges). When
	// the request's Since is positive and at most Batches, Group holds
	// the delta: the skyline rows of batches [Since, Batches). Otherwise
	// it holds the whole skyline — also when Since lies beyond the
	// replica's batch list.
	Batches int
}

// SkyOutcome says how a replica produced a ShardSkyline answer.
type SkyOutcome uint8

const (
	// SkyComputed: the kernel ran over the (range-filtered) resident rows.
	SkyComputed SkyOutcome = iota
	// SkyCached: cut from the shard's cached skyline as it stood.
	SkyCached
	// SkyFolded: cut from the cached skyline after folding in the
	// batches appended since the previous query.
	SkyFolded
)

// String returns the outcome's metric-label form.
func (o SkyOutcome) String() string {
	switch o {
	case SkyComputed:
		return "computed"
	case SkyCached:
		return "cached"
	case SkyFolded:
		return "folded"
	}
	return "unknown"
}

// PullShardArgs streams a shard's resident data off a replica in
// resumable batches: Cursor is the replica's group-list position from
// the previous reply (0 to start), MaxRows a soft batch bound (whole
// append batches are never split). Replicas of one shard hold
// identical group lists — they received the same ordered StoreShard
// sequence — so a pull interrupted by a replica's death resumes on
// another replica at the same cursor.
type PullShardArgs struct {
	ShardID int
	Cursor  int
	MaxRows int
}

// PullShardReply carries one pulled batch as raw frames plus the
// resume position.
type PullShardReply struct {
	BlockFrame []byte
	ZFrame     []byte
	// Rows is the batch's row count; Next the cursor for the following
	// pull; Done reports that the shard is fully streamed.
	Rows int
	Next int
	Done bool
}

// StageShardArgs appends one pulled batch to a handoff staging area,
// keyed by (shard, epoch) so a staged-but-aborted handoff can never
// pollute resident data or a later attempt's stage.
type StageShardArgs struct {
	ShardID int
	// Epoch identifies the handoff attempt. It is unique per attempt
	// (not the target map version, which an aborted attempt reuses), so
	// a retry never appends onto a failed attempt's leftover stage.
	Epoch      uint64
	BlockFrame []byte
	ZFrame     []byte
}

// StageShardReply acknowledges staging with the staged row count.
type StageShardReply struct {
	Rows int
}

// CommitShardArgs promotes a fully staged (shard, epoch) to resident,
// replacing any prior resident data for the shard, and folds
// MapVersion into the worker's installed version.
type CommitShardArgs struct {
	ShardID    int
	Epoch      uint64
	MapVersion uint64
}

// CommitShardReply acknowledges the commit with the now-resident rows.
type CommitShardReply struct {
	Rows int
}

// DropStagedArgs discards one staging area — the abort path.
type DropStagedArgs struct {
	ShardID int
	Epoch   uint64
}

// DropStagedReply acknowledges the discard.
type DropStagedReply struct{}

// DropShardArgs removes a shard's resident data from a replica after
// ownership moved away. The version guard makes late or duplicate
// drops harmless: a worker that has since installed a newer map (for
// example the shard moved back to it) rejects the stale drop.
type DropShardArgs struct {
	ShardID    int
	MapVersion uint64
}

// DropShardReply acknowledges the drop.
type DropShardReply struct{}

// ShardStatsArgs asks a worker for its resident shard inventory.
type ShardStatsArgs struct{}

// ShardStatsReply reports the worker's installed shard-map version,
// resident rows per shard ID, and the rows each shard's cached skyline
// holds (0 until the first query after a store, commit or restart).
type ShardStatsReply struct {
	MapVersion  uint64
	Rows        map[int]int64
	SkylineRows map[int]int64
}
