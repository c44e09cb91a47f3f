package dist

import (
	"context"
	"fmt"
	"slices"
	"time"

	"zskyline/internal/obs"
)

// HandoffReport describes one completed shard move.
type HandoffReport struct {
	Shard      int
	FromGroup  int
	ToGroup    int
	MapVersion uint64 // version the cluster serves under after the move
	Rows       int    // rows streamed
	Replicas   int    // target members that committed
}

// Handoff moves one shard to another worker group while the cluster
// keeps serving: a rolling rebalance, not a stop-the-world one.
//
// The protocol is pull → stage → commit → flip → drop:
//
//  1. Pull: stream the shard's resident data off a fresh source
//     replica in batches (PullShard). The cursor is a group-list
//     index and replicas hold identical group lists, so when the
//     source dies or the stream is severed mid-pull, the pull resumes
//     at the same cursor on another member — the resurrection state
//     machine supplies the liveness verdicts. A source that answers
//     shard-moved no longer holds the shard; it leaves the sources and
//     the cursor is pulled from the next.
//  2. Stage: send each pulled batch, decoded and checked like any
//     batch (one address per row), to every member of the target
//     group under a staging epoch. A member that fails staging is
//     dropped from the transfer; at least one must survive.
//  3. Commit: promote the staging area to resident on each surviving
//     target. Staged data was invisible to queries until here.
//  4. Flip: bump the shard map (WithOwner increments the version) so
//     new queries and inserts route to the target group, and
//     re-broadcast the rule blob so resurrection re-installs the new
//     ownership. Targets that failed staging or commit start stale.
//  5. Drop: best-effort DropShard on old members that left the owning
//     group. A query that raced the flip and still hits them gets a
//     verdict with status shard-moved, and re-routes from the fresh
//     map.
//
// Inserts to the shard are blocked for the duration (the per-shard
// lock), so the streamed copy is complete; queries are never blocked.
// Handoffs of different shards are serialized (version allocation is
// simplest when single-file, and rebalances are rare admin
// operations). Handing a shard to its own group is the repair path:
// stale replicas are re-streamed a full copy and rejoin fresh.
func (c *Cluster) Handoff(ctx context.Context, sid, toGroup int) (*HandoffReport, error) {
	if toGroup < 0 || toGroup >= len(c.groups) {
		return nil, fmt.Errorf("dist: handoff target group %d of %d", toGroup, len(c.groups))
	}
	c.hmu.Lock()
	defer c.hmu.Unlock()
	lk := c.shardLock(sid)
	lk.Lock()
	defer lk.Unlock()

	c.mu.Lock()
	idx := c.smap.IndexOf(sid)
	if idx < 0 {
		c.mu.Unlock()
		return nil, fmt.Errorf("dist: handoff of unknown shard %d", sid)
	}
	fromGroup := c.smap.Shards[idx].Group
	targetVer := c.smap.Version + 1
	sources, _ := c.freshMembersLocked(sid)
	c.mu.Unlock()
	// The staging epoch is unique per attempt (hmu is held). targetVer
	// would not be: an aborted handoff leaves the version unchanged, and
	// its best-effort DropStaged can fail, so a version-keyed retry
	// could append onto the leftovers of the failed stage.
	c.handoffSeq++
	epoch := c.handoffSeq

	start := time.Now()
	ev := &obs.Event{ID: obs.NewRequestID(), Kind: "handoff", Route: "cluster/handoff",
		Query: fmt.Sprintf("shard=%d,from=%d,to=%d,v=%d", sid, fromGroup, toGroup, targetVer)}
	rep := &HandoffReport{Shard: sid, FromGroup: fromGroup, ToGroup: toGroup, MapVersion: targetVer}

	fail := func(err error) (*HandoffReport, error) {
		// Abort: discard whatever staged. The map never flipped, so the
		// cluster is exactly as before.
		for _, t := range c.groups[toGroup] {
			_, _ = c.inner.call(ctx, "Worker.DropStaged",
				DropStagedArgs{ShardID: sid, Epoch: epoch}, &DropStagedReply{}, pinned(t))
		}
		ev.DurationMS = float64(time.Since(start).Microseconds()) / 1000
		ev.SetError(classify(err).String(), err.Error())
		c.inner.events.RecordForced(*ev)
		return nil, err
	}

	if len(sources) == 0 {
		return fail(fmt.Errorf("dist: handoff of shard %d: %w", sid, ErrShardDown))
	}

	// Targets still receiving the stream; members drop out on error.
	staging := append([]int(nil), c.groups[toGroup]...)
	drop := func(i int) { staging = append(staging[:i], staging[i+1:]...) }

	// Seed residency on targets even for an empty shard, then stream.
	pullArgs := PullShardArgs{ShardID: sid, MaxRows: c.pullRows}
	for done := false; !done; {
		var reply PullShardReply
		served, err := c.inner.call(ctx, "Worker.PullShard", pullArgs, &reply,
			callOpts{pool: sources})
		if err != nil && classify(err) == classShardMoved && len(sources) > 1 {
			// This source no longer holds the shard (it restarted, say). The
			// cursor is portable, so pull it from another source.
			sources = slices.DeleteFunc(sources, func(w int) bool { return w == served })
			continue
		}
		if err != nil {
			return fail(fmt.Errorf("dist: pull of shard %d: %w", sid, err))
		}
		rep.Rows += reply.Rows
		sargs := StageShardArgs{ShardID: sid, Epoch: epoch, Batch: reply.Batch}
		for i := 0; i < len(staging); {
			_, err := c.inner.call(ctx, "Worker.StageShard", sargs, &StageShardReply{}, pinned(staging[i]))
			if err != nil {
				if ctx.Err() != nil {
					return fail(ctx.Err())
				}
				drop(i)
				continue
			}
			i++
		}
		if len(staging) == 0 {
			return fail(fmt.Errorf("dist: handoff of shard %d: no target in group %d accepted the stream",
				sid, toGroup))
		}
		pullArgs.Cursor = reply.Next
		done = reply.Done
	}

	// Commit: staged → resident on every surviving target. A commit
	// rewrites a replica's batch list, so the full-query memo, whose
	// cursors index those lists, stands aside until the handoff settles.
	c.mu.Lock()
	c.moving++
	c.mu.Unlock()
	committed := map[int]bool{}
	for _, t := range staging {
		_, err := c.inner.call(ctx, "Worker.CommitShard",
			CommitShardArgs{ShardID: sid, Epoch: epoch, MapVersion: targetVer},
			&CommitShardReply{}, pinned(t))
		if err == nil {
			committed[t] = true
		}
	}
	if len(committed) == 0 {
		c.mu.Lock()
		c.epoch++
		c.moving--
		c.mu.Unlock()
		return fail(fmt.Errorf("dist: handoff of shard %d: no target in group %d committed", sid, toGroup))
	}
	rep.Replicas = len(committed)

	// Flip ownership. Target members that missed the stream or the
	// commit start stale — they rejoin via a repair handoff.
	c.mu.Lock()
	c.smap = c.smap.WithOwner(idx, toGroup)
	c.epoch++
	c.moving--
	if c.smap.Version != targetVer {
		// Unreachable while handoffs are serialized; guard the invariant
		// loudly rather than serving under a torn version.
		c.mu.Unlock()
		return nil, fmt.Errorf("dist: handoff of shard %d: version moved underneath (%d != %d)",
			sid, c.smap.Version, targetVer)
	}
	st := map[int]bool{}
	for _, t := range c.groups[toGroup] {
		if !committed[t] {
			st[t] = true
		}
	}
	c.stale[sid] = st
	newMap := c.smap.Clone()
	c.mu.Unlock()
	c.inner.reg.Gauge("zsky_shard_points", obs.L("shard", fmt.Sprint(sid))).Set(float64(rep.Rows))

	// Re-broadcast so lastRule carries the new map: a worker that dies
	// and resurrects from here on learns the post-move ownership.
	// Best-effort — workers also fold versions forward from query and
	// insert arguments.
	_ = c.inner.broadcast(ctx, RuleBlob{ID: c.ruleID, Data: c.ruleData, Shards: newMap})

	// Drop the shard from old members that left the owning group.
	// Best-effort: a dead member simply resurrects without the shard
	// (resurrection replays the rule, not the data), and the version
	// guard makes a late drop harmless if the shard moves back.
	if fromGroup != toGroup {
		for _, w := range c.groups[fromGroup] {
			_, _ = c.inner.call(ctx, "Worker.DropShard",
				DropShardArgs{ShardID: sid, MapVersion: targetVer}, &DropShardReply{}, pinned(w))
		}
	}

	c.inner.reg.Counter("zsky_shard_moves_total").Add(1)
	c.inner.reg.Histogram("zsky_shard_handoff_seconds", nil).Observe(time.Since(start).Seconds())
	ev.DurationMS = float64(time.Since(start).Microseconds()) / 1000
	ev.SetResults(rep.Rows)
	c.inner.events.RecordForced(*ev)
	return rep, nil
}
