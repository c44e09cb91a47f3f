package dist

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"zskyline/internal/dominance"
	"zskyline/internal/obs"
	"zskyline/internal/plan"
	"zskyline/internal/transport"
	"zskyline/internal/zorder"
)

// residentShard is one shard's data on one replica: the ordered list
// of append batches (each a block + its Z-address column) received via
// StoreShard, or — after a handoff commit — via the staging area.
// Replicas of one shard receive the same ordered StoreShard sequence
// (the coordinator serializes inserts per shard), so their group lists
// are identical, which is what makes PullShard cursors resumable
// across replicas.
type residentShard struct {
	groups []plan.Group
	rows   int
	sky    shardSkyline
}

// shardSkyline is a resident shard's lazily maintained skyline: fold
// holds the skyline of groups[:k] under rule ruleID. Queries fold the
// batches appended since into it (ShardSkyline); the store, stage and
// pull paths never touch it. It lives inside the residentShard value,
// so a handoff commit (wholesale replace) and a drop discard it along
// with the rows it was computed from — there is nothing to invalidate.
// A fold installs a fresh group on every add, so replies alias them.
type shardSkyline struct {
	mu     sync.Mutex
	ruleID uint64
	k      int
	fold   *plan.Fold
	// rows mirrors the fold's skyline size for ShardStats, which must
	// not wait on mu behind a fold.
	rows atomic.Int64
}

// stageKey identifies one handoff attempt's staging area.
type stageKey struct {
	shard int
	epoch uint64
}

// installShardMap folds a broadcast shard-map version into the
// worker's installed version (monotone: stale rebroadcasts are
// ignored).
func (w *Worker) installShardMap(version uint64) {
	w.smu.Lock()
	if version > w.shardVer {
		w.shardVer = version
	}
	w.smu.Unlock()
}

// setShardGauge publishes one shard's resident row count.
func (w *Worker) setShardGauge(shardID, rows int) {
	w.reg.Gauge("zsky_shard_points", obs.L("shard", fmt.Sprint(shardID))).Set(float64(rows))
}

// resetShardGauges publishes a shard whose residency was just replaced
// or dropped: rows resident, and no cached skyline yet.
func (w *Worker) resetShardGauges(shardID, rows int) {
	w.setShardGauge(shardID, rows)
	w.reg.Gauge("zsky_shard_skyline_rows", obs.L("shard", fmt.Sprint(shardID))).Set(0)
}

// StoreShard appends one routed insert batch to the shard's resident
// data, creating the shard's residency on first store. The coordinator
// replicates a batch by issuing the same StoreShard to every live
// member of the owning group, under a per-shard lock, so replicas stay
// byte-identical.
func (w *Worker) StoreShard(args StoreShardArgs, reply *StoreShardReply) error {
	g := args.Batch
	g.Gid = args.ShardID
	w.smu.Lock()
	if args.MapVersion > w.shardVer {
		w.shardVer = args.MapVersion
	}
	res := w.resident[args.ShardID]
	if res == nil {
		res = &residentShard{}
		w.resident[args.ShardID] = res
	}
	if w.maxResident > 0 && res.rows+g.Len() > w.maxResident {
		w.smu.Unlock()
		return fmt.Errorf("dist: shard %d on %s over resident cap: %d+%d > %d",
			args.ShardID, w.addr, res.rows, g.Len(), w.maxResident)
	}
	if g.Len() > 0 {
		res.groups = append(res.groups, g)
		res.rows += g.Len()
	}
	reply.Rows = res.rows
	w.smu.Unlock()
	w.setShardGauge(args.ShardID, reply.Rows)
	return nil
}

// ShardSkyline answers the skyline of the shard's resident data,
// restricted to [Lo, Hi) when bounds are given. A whole-shard query is
// served from the shard's cached skyline, folding in whatever batches
// arrived since the last query; under Pareto dominance so is a prefix
// query (Lo == nil), because a dominator never has a larger Z-address:
// the skyline of the rows below Hi is exactly the cached skyline's rows
// below Hi. A range with a lower bound runs the kernel over the
// filtered rows — its dominators may lie below Lo and must not count.
// Folding is exact because the relation is transitive, which NewCluster
// requires. A whole-shard Pareto query with a positive Since is
// answered with the delta the coordinator has not merged yet (see
// ShardSkyReply.Batches). Replies leave the Z-address column out.
// A replica without the shard answers with status shard-moved, which
// the coordinator re-routes from a fresh map snapshot: that is how a
// query that raced a rebalance converges on the new owner.
func (w *Worker) ShardSkyline(args ShardSkyArgs, reply *ShardSkyReply) error {
	r, err := w.rule(args.RuleID)
	if err != nil {
		return err
	}
	if err := checkBounds(r.Encoder().Words(), args.Lo, args.Hi); err != nil {
		return err
	}
	whole := len(args.Lo) == 0 && len(args.Hi) == 0
	pareto := dominance.IsPareto(r.Provider())
	if args.Since < 0 || (args.Since > 0 && !(whole && pareto)) {
		return fmt.Errorf("dist: shard %d: cursor %d needs a whole-shard Pareto query", args.ShardID, args.Since)
	}
	// Fold the caller's map version forward under the write lock before
	// snapshotting the shard: shardVer must never be written under the
	// read lock below (concurrent queries would race the write).
	w.installShardMap(args.MapVersion)
	w.smu.RLock()
	res := w.resident[args.ShardID]
	var groups []plan.Group
	if res != nil {
		// Batches are append-only and immutable, so a capped slice header
		// is a consistent snapshot.
		groups = res.groups[:len(res.groups):len(res.groups)]
	}
	w.smu.RUnlock()
	if res == nil {
		return verdictf(transport.StatusShardMoved, "dist: shard %d not resident on %s", args.ShardID, w.addr)
	}
	shard := obs.L("shard", fmt.Sprint(args.ShardID))
	if len(args.Lo) == 0 && (len(args.Hi) == 0 || pareto) {
		var k int
		reply.Group, reply.Outcome, k = res.sky.below(r, args.RuleID, groups, args.Hi)
		w.reg.Gauge("zsky_shard_skyline_rows", shard).Set(float64(res.sky.rows.Load()))
		if whole {
			reply.Batches = k
		}
		if args.Since > 0 && args.Since <= k {
			if k > len(groups) {
				// Another caller folded batches this snapshot predates.
				w.smu.RLock()
				groups = res.groups[:k:k]
				w.smu.RUnlock()
			}
			reply.Group = deltaRows(reply.Group, groups[args.Since:k])
		}
	} else {
		// Phase 3's merge would be wrong here: it assumes its inputs are
		// already candidate skylines and only eliminates across groups.
		reply.Group = r.LocalSkylineGroup(rangeRows(groups, zorder.Range{Lo: args.Lo, Hi: args.Hi}), nil)
		reply.Outcome = SkyComputed
	}
	reply.Group.Gid = args.ShardID
	reply.Group.ZCol = zorder.ZCol{}
	w.reg.Counter("zsky_shard_skyline_total", shard, obs.L("outcome", reply.Outcome.String())).Add(1)
	return nil
}

// deltaRows returns the rows of sky that came from batches, in sky's
// Z-order. Each batch row claims one unclaimed row of sky with its
// address and its coordinates, found by a binary search on sky's
// Z-sorted column; a batch row that claims nothing is not on sky.
// Claiming keeps copies exact: copies of a point are on a Pareto
// skyline all together or not at all, so each copy in batches claims
// one and the copies from earlier batches stay unclaimed.
func deltaRows(sky plan.Group, batches []plan.Group) plan.Group {
	n := sky.Len()
	claimed := make([]bool, n)
	for _, b := range batches {
		for i := 0; i < b.Len(); i++ {
			z, row := b.ZCol.At(i), b.Block.Row(i)
			j := sort.Search(n, func(j int) bool { return zorder.Compare(sky.ZCol.At(j), z) >= 0 })
			for ; j < n && zorder.Compare(sky.ZCol.At(j), z) == 0; j++ {
				if !claimed[j] && slices.Equal(sky.Block.Row(j), row) {
					claimed[j] = true
					break
				}
			}
		}
	}
	var rows []int32
	for j, ok := range claimed {
		if ok {
			rows = append(rows, int32(j))
		}
	}
	out, _ := plan.Gather([]plan.Part{plan.Pick(sky, rows)}, nil)
	return out
}

// checkBounds rejects a range bound that is neither absent nor exactly
// one address wide: zorder.Compare indexes its second operand by the
// first one's length, so a short bound would panic the process.
func checkBounds(words int, lo, hi []uint64) error {
	for _, b := range [][]uint64{lo, hi} {
		if len(b) != 0 && len(b) != words {
			return fmt.Errorf("dist: range bound has %d words, addresses have %d", len(b), words)
		}
	}
	return nil
}

// below brings the cached skyline up to date with groups — the
// caller's snapshot of the shard's batches — and returns its rows
// below hi (all of them when hi is empty), how it got them, and how
// many batches the skyline covers. A bound comes only with a Pareto
// rule, whose fold keeps its rows Z-sorted, so the rows below it are a
// prefix. Concurrent callers (hedge legs) serialize on the fold, so the
// work is done once; a caller whose snapshot is older than the cache is
// answered from the cache, a state the shard reached before the reply.
func (c *shardSkyline) below(r *plan.Rule, ruleID uint64, groups []plan.Group, hi zorder.ZAddr) (plan.Group, SkyOutcome, int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.fold == nil || c.ruleID != ruleID {
		// Another cluster's rule: its skyline says nothing under this one.
		c.ruleID, c.k, c.fold = ruleID, 0, plan.NewFold(r, nil)
	}
	outcome := SkyCached
	if c.k < len(groups) {
		outcome = SkyComputed
		if c.k > 0 {
			outcome = SkyFolded
		}
		batch, _ := plan.Gather(plan.Whole(groups[c.k:]), nil)
		c.fold.Add(batch)
		c.k = len(groups)
		c.rows.Store(int64(c.fold.Skyline().Len()))
	}
	out := c.fold.Skyline()
	if len(hi) > 0 {
		n := sort.Search(out.Len(), func(i int) bool { return zorder.Compare(out.ZCol.At(i), hi) >= 0 })
		out.Block, out.ZCol = out.Block.Slice(0, n), out.ZCol.Slice(0, n)
	}
	return out, outcome, c.k
}

// rangeRows gathers the rows of groups whose Z-address falls inside
// rng into one group, their column cut alongside: each row is copied
// once, straight from its batch. The batches' in-range positions share
// one list, sized for every row, so it never grows.
func rangeRows(groups []plan.Group, rng zorder.Range) plan.Group {
	n := 0
	for _, g := range groups {
		n += g.Len()
	}
	all := make([]int32, 0, n)
	parts := make([]plan.Part, 0, len(groups))
	for _, g := range groups {
		lo := len(all)
		if all = rng.FilterRows(all, g.ZCol); len(all) > lo {
			parts = append(parts, plan.Part{Group: g, Rows: all[lo:]})
		}
	}
	out, _ := plan.Gather(parts, nil)
	return out
}

// PullShard streams one batch of the shard's resident data, resuming
// at Cursor (a group-list index). A batch packs whole append groups up
// to roughly MaxRows rows into one group.
func (w *Worker) PullShard(args PullShardArgs, reply *PullShardReply) error {
	w.smu.RLock()
	res := w.resident[args.ShardID]
	var groups []plan.Group
	if res != nil {
		groups = res.groups[:len(res.groups):len(res.groups)]
	}
	w.smu.RUnlock()
	if res == nil {
		return verdictf(transport.StatusShardMoved, "dist: shard %d not resident on %s", args.ShardID, w.addr)
	}
	maxRows := args.MaxRows
	if maxRows <= 0 {
		maxRows = 4096
	}
	cur := args.Cursor
	if cur < 0 || cur > len(groups) {
		return fmt.Errorf("dist: shard %d pull cursor %d of %d", args.ShardID, cur, len(groups))
	}
	end := cur
	for ; end < len(groups) && reply.Rows < maxRows; end++ {
		reply.Rows += groups[end].Len()
	}
	reply.Batch, _ = plan.Gather(plan.Whole(groups[cur:end]), nil)
	reply.Next = end
	reply.Done = end >= len(groups)
	return nil
}

// StageShard appends one pulled batch to the (shard, epoch) staging
// area. Staged data is invisible to queries until CommitShard.
func (w *Worker) StageShard(args StageShardArgs, reply *StageShardReply) error {
	g := args.Batch
	g.Gid = args.ShardID
	key := stageKey{shard: args.ShardID, epoch: args.Epoch}
	w.smu.Lock()
	st := w.staged[key]
	if st == nil {
		st = &residentShard{}
		w.staged[key] = st
	}
	if w.maxResident > 0 && st.rows+g.Len() > w.maxResident {
		w.smu.Unlock()
		return fmt.Errorf("dist: shard %d staging on %s over resident cap: %d+%d > %d",
			args.ShardID, w.addr, st.rows, g.Len(), w.maxResident)
	}
	if g.Len() > 0 {
		st.groups = append(st.groups, g)
		st.rows += g.Len()
	}
	reply.Rows = st.rows
	w.smu.Unlock()
	return nil
}

// CommitShard promotes the (shard, epoch) staging area to resident,
// replacing whatever the replica previously held for the shard, and
// discards every other staging area for the shard. Committing a
// missing staging area yields an empty resident shard — correct for a
// shard that held no rows.
func (w *Worker) CommitShard(args CommitShardArgs, reply *CommitShardReply) error {
	key := stageKey{shard: args.ShardID, epoch: args.Epoch}
	w.smu.Lock()
	st := w.staged[key]
	if st == nil {
		st = &residentShard{}
	}
	for k := range w.staged {
		if k.shard == args.ShardID {
			delete(w.staged, k)
		}
	}
	w.resident[args.ShardID] = st
	if args.MapVersion > w.shardVer {
		w.shardVer = args.MapVersion
	}
	reply.Rows = st.rows
	w.smu.Unlock()
	w.resetShardGauges(args.ShardID, reply.Rows)
	return nil
}

// DropStaged discards one staging area (handoff abort).
func (w *Worker) DropStaged(args DropStagedArgs, reply *DropStagedReply) error {
	w.smu.Lock()
	delete(w.staged, stageKey{shard: args.ShardID, epoch: args.Epoch})
	w.smu.Unlock()
	_ = reply
	return nil
}

// DropShard removes the shard's resident data after ownership moved
// away. The guard — reject versions below the installed one — makes a
// delayed drop from an old rebalance harmless if the shard has since
// moved back here under a newer map.
func (w *Worker) DropShard(args DropShardArgs, reply *DropShardReply) error {
	w.smu.Lock()
	if args.MapVersion < w.shardVer {
		w.smu.Unlock()
		return verdictf(transport.StatusShardMoved, "dist: stale shard map v%d on %s (have v%d)",
			args.MapVersion, w.addr, w.shardVer)
	}
	w.shardVer = args.MapVersion
	delete(w.resident, args.ShardID)
	w.smu.Unlock()
	w.resetShardGauges(args.ShardID, 0)
	_ = reply
	return nil
}

// ShardStats reports the replica's installed map version and, per
// shard, the resident rows and the rows of the cached skyline — what
// skydist -shard-report and the tests read.
func (w *Worker) ShardStats(_ ShardStatsArgs, reply *ShardStatsReply) error {
	w.smu.RLock()
	defer w.smu.RUnlock()
	reply.MapVersion = w.shardVer
	reply.Rows = make(map[int]int64, len(w.resident))
	reply.SkylineRows = make(map[int]int64, len(w.resident))
	for id, res := range w.resident {
		reply.Rows[id] = int64(res.rows)
		reply.SkylineRows[id] = res.sky.rows.Load()
	}
	return nil
}
