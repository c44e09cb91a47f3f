package dist

import (
	"context"
	"fmt"
	"sync"
	"time"

	"zskyline/internal/dominance"
	"zskyline/internal/obs"
	"zskyline/internal/partition"
	"zskyline/internal/plan"
	"zskyline/internal/point"
	"zskyline/internal/zorder"
)

// ClusterConfig parameterizes a sharded cluster. Unlike
// CoordinatorConfig there is no sampling or partition learning: the
// dataset lives on the workers, cut by Z-range, and the "rule" is just
// the encoder geometry plus the local/merge algorithms.
type ClusterConfig struct {
	// Mins/Maxs are the data bounds per dimension; their length is the
	// dimensionality. Points outside the box are clamped by the
	// encoder, which degrades routing balance but never correctness.
	Mins, Maxs []float64
	// Bits is the Z-order resolution per dimension (0 selects 16).
	Bits int
	// Fanout is the ZB-tree fanout (0 selects the default).
	Fanout int
	// UseZS selects Z-search as the shard-local skyline algorithm.
	UseZS bool
	// TreeMerge is ignored: the cross-shard merge is the coordinator's
	// one-way sweep under every setting.
	//
	// Deprecated: kept only because bench/cluster.go still sets it; to be
	// deleted by the next benchmark-only change.
	TreeMerge bool
	// Dominance selects the dominance relation. It must be transitive:
	// shard-local skylines are only sound to merge when elimination
	// composes across shards. Non-transitive descriptors are rejected
	// at construction.
	Dominance dominance.Descriptor

	// Shards is the shard count (0 selects one per worker group).
	Shards int
	// Cuts, when non-nil, are explicit Z-range cut addresses
	// (Shards-1 of them, strictly increasing); nil selects uniform
	// cuts over the curve's leading word.
	Cuts [][]uint64
	// PullRows is the handoff streaming batch size in rows (0 selects
	// 4096).
	PullRows int

	// Fault-tolerance policy, with the CoordinatorConfig semantics
	// (0 = default, negative = disabled).
	RPCTimeout     time.Duration
	Retries        int
	Hedge          time.Duration
	RedialInterval time.Duration
	DialTimeout    time.Duration

	// Metrics/Events as in CoordinatorConfig.
	Metrics *obs.Registry
	Events  *obs.EventLog
	// Seed drives the retry jitter schedule.
	Seed int64
}

// ClusterReport describes one cluster query.
type ClusterReport struct {
	// Shards is the map's shard count; Routed how many shards the
	// query actually contacted (== Shards for full-curve queries,
	// fewer for range queries under partition-aware routing).
	Shards int
	Routed int
	// MapVersion is the shard-map version the query routed under.
	MapVersion uint64
	// Candidates is how many shard-skyline rows the query pulled to the
	// coordinator; SkylineSize, |S|, is the size of the answer. After a
	// sweep Candidates >= SkylineSize; a fold pulls only the rows new
	// since the previous full query, usually far fewer.
	Candidates  int
	SkylineSize int
	// Merge names the cross-shard merge that ran: "fold" when a full
	// query folded the shards' new skyline rows into the coordinator's
	// resident global skyline, "sweep" when it merged every shard's
	// whole skyline (plan.LocalExec.SweepMerge; one shard's skyline is
	// its own merge).
	Merge string
	// WireSentBytes/WireRecvBytes are this query's TCP byte deltas
	// summed over all worker connections.
	WireSentBytes int64
	WireRecvBytes int64
}

// Cluster is the sharded distributed tier: worker groups own
// contiguous Z-ranges of the dataset under a versioned ShardMap,
// inserts route to owning groups (replicated to every live member),
// queries fan out to exactly the shards whose range they touch and
// merge the shard skylines where they land — on the coordinator, as a
// one-way sweep in range order (plan.LocalExec.SweepMerge), so a
// candidate row crosses the wire once — and Handoff moves a shard
// between groups while serving. It wraps the unsharded Coordinator for
// everything that is not shard-specific: dialing, liveness,
// resurrection, the retry/hedge call layer, metrics, and events.
type Cluster struct {
	cfg      ClusterConfig
	inner    *Coordinator
	groups   [][]int // worker indices per group
	rule     *plan.Rule
	ruleID   uint64
	ruleData plan.RuleData
	enc      *zorder.Encoder
	table    *partition.RangeTable // cuts are immutable across versions
	shardIDs []int                 // range index -> stable shard ID
	pullRows int

	mu   sync.Mutex
	smap ShardMap
	// stale marks replicas that missed a replicated write (or were not
	// fully staged by a handoff): shard ID -> worker index -> true.
	// Stale replicas serve no queries and receive no inserts; they
	// rejoin only through a handoff commit, which replaces their
	// resident store wholesale.
	stale map[int]map[int]bool
	rows  map[int]int64
	locks map[int]*sync.Mutex // per-shard insert/handoff serialization
	// epoch moves whenever a replica's batch list may stop being the one
	// the memo's cursors index: a replica marked stale, a handoff that
	// settles (flips, or aborts after its commits). moving counts the
	// handoffs between their first commit and that point.
	epoch  uint64
	moving int

	// memo is the last full skyline, kept for the next full query.
	memo fullMemo

	// hmu serializes handoffs cluster-wide so each allocates a unique
	// map version (see Handoff).
	hmu sync.Mutex
	// handoffSeq issues the staging epoch for each handoff attempt,
	// guarded by hmu. It advances on every attempt — including aborted
	// ones, whose map version is reused — so a retry can never append
	// onto leftovers a failed attempt staged under the same key.
	handoffSeq uint64
}

// NewCluster dials every worker in every group, broadcasts the cluster
// rule with shard-map version 1, and seeds shard residency on each
// owning group. Startup is strict, like NewCoordinator: any
// unreachable worker fails construction.
func NewCluster(ctx context.Context, cfg ClusterConfig, groups [][]string) (*Cluster, error) {
	if len(groups) == 0 {
		return nil, fmt.Errorf("dist: no worker groups")
	}
	dims := len(cfg.Mins)
	if dims == 0 || len(cfg.Maxs) != dims {
		return nil, fmt.Errorf("dist: cluster bounds %d/%d dims", dims, len(cfg.Maxs))
	}
	if cfg.Bits == 0 {
		cfg.Bits = 16
	}
	if cfg.PullRows <= 0 {
		cfg.PullRows = 4096
	}
	var addrs []string
	groupIdx := make([][]int, len(groups))
	for gi, g := range groups {
		if len(g) == 0 {
			return nil, fmt.Errorf("dist: worker group %d is empty", gi)
		}
		for _, a := range g {
			groupIdx[gi] = append(groupIdx[gi], len(addrs))
			addrs = append(addrs, a)
		}
	}

	local := plan.SB
	if cfg.UseZS {
		local = plan.ZS
	}
	rd := plan.RuleData{
		Dims: dims, Bits: cfg.Bits,
		Mins:   append([]float64(nil), cfg.Mins...),
		Maxs:   append([]float64(nil), cfg.Maxs...),
		Fanout: cfg.Fanout, Local: local, Merge: plan.MergeZM,
		Dominance: cfg.Dominance,
	}
	rule, err := plan.FromData(&rd)
	if err != nil {
		return nil, err
	}
	if !rule.Provider().Caps().Transitive {
		return nil, fmt.Errorf("dist: cluster requires a transitive dominance relation, %s is not",
			cfg.Dominance.String())
	}
	enc := rule.Encoder()

	shards := cfg.Shards
	if shards <= 0 {
		shards = len(groups)
	}
	var smap ShardMap
	if cfg.Cuts != nil {
		if cfg.Shards > 0 && cfg.Shards != len(cfg.Cuts)+1 {
			return nil, fmt.Errorf("dist: %d explicit cuts make %d shards, config says %d",
				len(cfg.Cuts), len(cfg.Cuts)+1, cfg.Shards)
		}
		smap = ShardMap{Version: 1, Words: enc.Words(), Cuts: cfg.Cuts}
		for i := 0; i <= len(cfg.Cuts); i++ {
			smap.Shards = append(smap.Shards, ShardAssign{ID: i, Group: i % len(groups)})
		}
	} else {
		smap = UniformShardMap(enc.Words(), shards, len(groups))
	}
	if err := smap.Validate(len(groups)); err != nil {
		return nil, err
	}
	table, err := smap.table()
	if err != nil {
		return nil, err
	}

	ccfg := CoordinatorConfig{
		M: 1, Delta: 1, SampleRatio: 1, Bits: cfg.Bits, Fanout: cfg.Fanout,
		UseZS: cfg.UseZS, Seed: cfg.Seed,
		Dominance:  cfg.Dominance,
		RPCTimeout: cfg.RPCTimeout, Retries: cfg.Retries, Hedge: cfg.Hedge,
		RedialInterval: cfg.RedialInterval, DialTimeout: cfg.DialTimeout,
		Metrics: cfg.Metrics, Events: cfg.Events,
	}
	inner, err := NewCoordinator(ccfg, addrs)
	if err != nil {
		return nil, err
	}

	c := &Cluster{
		cfg: cfg, inner: inner, groups: groupIdx,
		rule: rule, ruleData: rd, enc: enc, table: table,
		pullRows: cfg.PullRows,
		smap:     smap,
		stale:    map[int]map[int]bool{},
		rows:     map[int]int64{},
		locks:    map[int]*sync.Mutex{},
	}
	for _, s := range smap.Shards {
		c.shardIDs = append(c.shardIDs, s.ID)
		c.locks[s.ID] = &sync.Mutex{}
	}
	c.ruleID = inner.salt<<32 | ruleCounter.Add(1)

	if err := inner.broadcast(ctx, RuleBlob{ID: c.ruleID, Data: rd, Shards: smap}); err != nil {
		inner.Close()
		return nil, err
	}
	// Seed residency: every member of a shard's owning group holds the
	// (empty) shard from the start, so queries on never-inserted shards
	// succeed instead of answering "not resident".
	for i, s := range smap.Shards {
		ok := 0
		for _, w := range c.groups[s.Group] {
			_, err := inner.call(ctx, "Worker.StoreShard",
				StoreShardArgs{RuleID: c.ruleID, MapVersion: smap.Version, ShardID: s.ID},
				&StoreShardReply{}, pinned(w))
			if err != nil {
				c.markShardStale(s.ID, w)
				continue
			}
			ok++
		}
		if ok == 0 {
			inner.Close()
			return nil, fmt.Errorf("dist: shard %d (range %d): %w", s.ID, i, ErrShardDown)
		}
	}
	return c, nil
}

// Close shuts the underlying coordinator down.
func (c *Cluster) Close() error { return c.inner.Close() }

// Metrics returns the cluster's metrics registry.
func (c *Cluster) Metrics() *obs.Registry { return c.inner.Metrics() }

// Events returns the cluster's event log.
func (c *Cluster) Events() *obs.EventLog { return c.inner.Events() }

// WireStats returns per-worker TCP byte totals since connection.
func (c *Cluster) WireStats() []WireStat { return c.inner.WireStats() }

// Map returns a snapshot of the current shard map.
func (c *Cluster) Map() ShardMap {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.smap.Clone()
}

// Groups returns the number of worker groups.
func (c *Cluster) Groups() int { return len(c.groups) }

// ShardRows returns the coordinator-side resident row count per shard
// ID (inserted rows; replicas each hold a full copy).
func (c *Cluster) ShardRows() map[int]int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[int]int64, len(c.rows))
	for k, v := range c.rows {
		out[k] = v
	}
	return out
}

// pinned is the call options of a replica-addressed call to worker w:
// it never fails over.
func pinned(w int) callOpts {
	return callOpts{pool: []int{w}, pin: true}
}

// shardLock returns the per-shard insert/handoff mutex.
func (c *Cluster) shardLock(sid int) *sync.Mutex {
	c.mu.Lock()
	defer c.mu.Unlock()
	lk := c.locks[sid]
	if lk == nil {
		lk = &sync.Mutex{}
		c.locks[sid] = lk
	}
	return lk
}

// markShardStale records that one replica missed a replicated write
// and must not serve the shard until a handoff re-streams it.
func (c *Cluster) markShardStale(sid, w int) {
	c.mu.Lock()
	if c.stale[sid] == nil {
		c.stale[sid] = map[int]bool{}
	}
	c.stale[sid][w] = true
	c.epoch++
	c.mu.Unlock()
	c.inner.reg.Counter("zsky_shard_stale_replicas_total",
		obs.L("shard", fmt.Sprint(sid))).Add(1)
}

// freshMembers returns the owning group's worker indices minus the
// shard's stale set, under the current map.
func (c *Cluster) freshMembers(sid int) (members []int, version uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.freshMembersLocked(sid)
}

func (c *Cluster) freshMembersLocked(sid int) (members []int, version uint64) {
	idx := c.smap.IndexOf(sid)
	if idx < 0 {
		return nil, c.smap.Version
	}
	st := c.stale[sid]
	for _, w := range c.groups[c.smap.Shards[idx].Group] {
		if !st[w] {
			members = append(members, w)
		}
	}
	return members, c.smap.Version
}

// ---- inserts ----

// Insert routes points to their owning shards and replicates each
// batch to every live member of the owning group.
func (c *Cluster) Insert(ctx context.Context, pts []point.Point) error {
	if len(pts) == 0 {
		return nil
	}
	return c.InsertBlock(ctx, point.BlockOf(c.enc.Dims(), pts))
}

// InsertBlock is Insert over a contiguous block: one bulk encode, one
// owner split, then per-shard replicated appends. The Z-address column
// computed for routing travels with each batch (encode-once), so
// workers never re-encode inserted points.
func (c *Cluster) InsertBlock(ctx context.Context, blk point.Block) error {
	if blk.Len() == 0 {
		return nil
	}
	if blk.Dims != c.enc.Dims() {
		return fmt.Errorf("dist: insert block has %d dims, want %d", blk.Dims, c.enc.Dims())
	}
	zc := c.enc.EncodeBlock(zorder.ZCol{}, blk)
	parts := plan.SplitByOwner(plan.Group{Block: blk, ZCol: zc},
		func(row int) int { return c.table.Locate(zc.At(row)) })
	for _, p := range parts {
		// Cuts never change across map versions, so the range index ->
		// shard ID mapping is stable even while a handoff runs.
		if err := c.insertShard(ctx, c.shardIDs[p.Gid], p); err != nil {
			return err
		}
	}
	return nil
}

// insertShard appends one routed batch to every fresh replica of the
// owning group, under the shard's lock (which also excludes a
// concurrent handoff of this shard). A replica that fails the write
// after retries is marked stale; the insert succeeds as long as one
// replica holds it, and fails with ErrShardDown when none does.
func (c *Cluster) insertShard(ctx context.Context, sid int, g plan.Group) error {
	lk := c.shardLock(sid)
	lk.Lock()
	defer lk.Unlock()
	members, version := c.freshMembers(sid)
	if len(members) == 0 {
		return fmt.Errorf("dist: shard %d: %w", sid, ErrShardDown)
	}
	blockFrame, err := g.Block.MarshalBinary()
	if err != nil {
		return err
	}
	zFrame, err := g.ZCol.MarshalBinary()
	if err != nil {
		return err
	}
	args := StoreShardArgs{RuleID: c.ruleID, MapVersion: version, ShardID: sid,
		BlockFrame: blockFrame, ZFrame: zFrame}
	ok := 0
	for mi, w := range members {
		if _, err := c.inner.call(ctx, "Worker.StoreShard", args, &StoreShardReply{}, pinned(w)); err != nil {
			fatal := classify(err) == classFatal
			if fatal || ctx.Err() != nil {
				// Aborting mid-replication must not leave replicas that
				// silently diverge: once any member stored the batch,
				// every member not known to hold it — this one and the
				// ones never attempted — goes stale so the fresh set
				// stays byte-identical (PullShard cursors depend on
				// identical group lists). A cancelled call is ambiguous
				// (the write may have landed), so its member goes stale
				// even when no other member stored the batch; a fatal
				// reply means the worker rejected it, so with ok == 0
				// the group is still consistent and nobody goes stale.
				if !fatal || ok > 0 {
					c.markShardStale(sid, w)
				}
				if ok > 0 {
					for _, m := range members[mi+1:] {
						c.markShardStale(sid, m)
					}
				}
				return fmt.Errorf("dist: shard %d store on %s: %w", sid, c.inner.addrs[w], err)
			}
			c.markShardStale(sid, w)
			continue
		}
		ok++
	}
	if ok == 0 {
		return fmt.Errorf("dist: shard %d: %w", sid, ErrShardDown)
	}
	c.mu.Lock()
	c.rows[sid] += int64(g.Len())
	total := c.rows[sid]
	c.mu.Unlock()
	c.inner.reg.Gauge("zsky_shard_points", obs.L("shard", fmt.Sprint(sid))).Set(float64(total))
	return nil
}

// ---- queries ----

// Skyline computes the exact global skyline: per-shard skylines on the
// owning groups, then the cross-shard merge.
func (c *Cluster) Skyline(ctx context.Context) ([]point.Point, *ClusterReport, error) {
	return c.skyline(ctx, zorder.Range{}, false)
}

// SkylineRange computes the exact skyline of the points whose
// Z-address falls in [lo, hi) (nil bounds mean the curve's ends), with
// partition-aware routing: only shards whose range overlaps the query
// are contacted.
func (c *Cluster) SkylineRange(ctx context.Context, lo, hi zorder.ZAddr) ([]point.Point, *ClusterReport, error) {
	return c.skyline(ctx, zorder.Range{Lo: lo, Hi: hi}, false)
}

// SkylineRangeBroadcast answers the same query as SkylineRange but
// fans out to every shard, each filtering locally — the
// broadcast-to-all baseline partition-aware routing is measured
// against (see EXPERIMENTS.md). Results are identical; only the wire
// traffic differs.
func (c *Cluster) SkylineRangeBroadcast(ctx context.Context, lo, hi zorder.ZAddr) ([]point.Point, *ClusterReport, error) {
	return c.skyline(ctx, zorder.Range{Lo: lo, Hi: hi}, true)
}

func (c *Cluster) skyline(ctx context.Context, rng zorder.Range, routeAll bool) ([]point.Point, *ClusterReport, error) {
	if err := checkBounds(c.enc.Words(), rng.Lo, rng.Hi); err != nil {
		return nil, nil, err
	}
	id := obs.RequestIDFrom(ctx)
	if id == "" {
		id = obs.NewRequestID()
		ctx = obs.ContextWithRequestID(ctx, id)
	}
	filter := len(rng.Lo) != 0 || len(rng.Hi) != 0
	route := "cluster/skyline"
	if filter {
		route = "cluster/skyline-range"
	}
	ev := &obs.Event{ID: id, Kind: "query", Route: route,
		Dominance: c.cfg.Dominance.String()}
	c.mu.Lock()
	version := c.smap.Version
	nShards := c.smap.NumShards()
	c.mu.Unlock()
	var targets []int
	if routeAll || !filter {
		for i := 0; i < nShards; i++ {
			targets = append(targets, i)
		}
	} else {
		targets = c.table.Overlapping(rng)
	}
	rep := &ClusterReport{Shards: nShards, Routed: len(targets), MapVersion: version}
	ev.Query = fmt.Sprintf("shards=%d/%d,v=%d", len(targets), nShards, version)
	wireBefore := c.WireStats()
	start := time.Now()

	var sky []point.Point
	var err error
	if filter {
		var merged plan.Group
		merged, _, err = c.sweep(ctx, rng, targets, rep, ev)
		sky = merged.Points()
	} else {
		sky, err = c.full(ctx, targets, rep, ev)
	}
	ev.DurationMS = float64(time.Since(start).Microseconds()) / 1000
	for i, ws := range c.WireStats() {
		ev.WireSentBytes += ws.Sent - wireBefore[i].Sent
		ev.WireRecvBytes += ws.Recv - wireBefore[i].Recv
	}
	rep.WireSentBytes, rep.WireRecvBytes = ev.WireSentBytes, ev.WireRecvBytes
	if err != nil {
		ev.SetError(classify(err).String(), err.Error())
		c.inner.events.RecordForced(*ev)
		return nil, nil, err
	}
	rep.SkylineSize = len(sky)
	ev.SetResults(len(sky))
	c.inner.events.Record(*ev)
	return sky, rep, nil
}

// sweep fetches the whole skyline of every target shard, clipped to
// rng, and merges them with the one-way sweep (a single shard's
// skyline is already the answer). It also returns how many batches
// each reply covers.
func (c *Cluster) sweep(ctx context.Context, rng zorder.Range, targets []int, rep *ClusterReport, ev *obs.Event) (plan.Group, []int, error) {
	start := time.Now()
	groups, batches, err := c.shardSkylines(ctx, rng, targets, nil)
	fanned := time.Now()
	ev.SetPhase("shard-skylines", fanned.Sub(start))
	if err != nil {
		return plan.Group{}, nil, err
	}
	rep.Merge = "sweep"
	for _, g := range groups {
		rep.Candidates += g.Len()
	}
	if len(groups) == 1 {
		return groups[0], batches, nil
	}
	merged, _, err := c.inner.exec.SweepMerge(ctx, c.rule, groups, nil)
	ev.SetPhase("merge/sweep", time.Since(fanned))
	return merged, batches, err
}

// fullMemo is the global skyline the last full query returned, kept
// under Pareto as a fold the next full query adds the shards' new
// skyline rows to. since holds, per shard ID, how many of the shard's
// batches the skyline covers: the cursor that shard's next delta
// starts from. The memo is valid under one key; full queries serialize
// on mu.
type fullMemo struct {
	mu    sync.Mutex
	fold  *plan.Fold // nil while cold
	key   memoKey
	since map[int]int
}

// memoKey is what a memo is valid under: the map version, and the
// cluster epoch plus the coordinator's resurrection count. open is false
// while a handoff is between its commit and its flip, when replicas of
// one shard may hold differently cut batch lists.
type memoKey struct {
	version, epoch uint64
	open           bool
}

func (c *Cluster) memoKey() memoKey {
	c.mu.Lock()
	defer c.mu.Unlock()
	return memoKey{version: c.smap.Version, epoch: c.epoch + c.inner.revivals.Load(), open: c.moving == 0}
}

// full answers a full-curve query. With a warm memo it asks each shard
// only for its skyline rows from the batches the memo has not seen, and
// folds them in: Sky(D ∪ B) = Sky(Sky(D) ∪ B′), where B′ drops only rows
// that a row of their shard dominates. A cold memo, a relation other
// than Pareto, a reply that is not a delta against the memo's cursor,
// or a key that moved while the replies came in takes the sweep
// instead, whose Z-sorted result re-seeds the memo.
func (c *Cluster) full(ctx context.Context, targets []int, rep *ClusterReport, ev *obs.Event) ([]point.Point, error) {
	m := &c.memo
	m.mu.Lock()
	defer m.mu.Unlock()
	if key := c.memoKey(); m.fold != nil && key.open && key == m.key {
		start := time.Now()
		deltas, batches, err := c.shardSkylines(ctx, zorder.Range{}, targets, m.since)
		fanned := time.Now()
		ev.SetPhase("shard-skylines", fanned.Sub(start))
		if err != nil {
			return nil, err
		}
		isDelta := c.memoKey() == key
		for i, idx := range targets {
			isDelta = isDelta && batches[i] >= m.since[c.shardIDs[idx]]
		}
		if isDelta {
			d := concatGroups(deltas)
			m.fold.Add(d)
			for i, idx := range targets {
				m.since[c.shardIDs[idx]] = batches[i]
			}
			rep.Merge, rep.Candidates = "fold", d.Len()
			ev.SetPhase("merge/fold", time.Since(fanned))
			return m.fold.Skyline().Points(), nil
		}
	}
	m.fold = nil
	key := c.memoKey()
	merged, batches, err := c.sweep(ctx, zorder.Range{}, targets, rep, ev)
	if err != nil {
		return nil, err
	}
	if dominance.IsPareto(c.rule.Provider()) && key.open && c.memoKey() == key {
		m.fold, m.key, m.since = plan.NewFoldFrom(c.rule, nil, merged), key, map[int]int{}
		for i, idx := range targets {
			m.since[c.shardIDs[idx]] = batches[i]
		}
	}
	return merged.Points(), nil
}

// shardSkylines fetches the skyline of every target range index,
// clipped to rng, in parallel, and returns them in target — ascending
// range — order, each checked by checkShardReply, with the batch count
// each reply covers. since, when non-nil, holds each shard ID's delta
// cursor. The first failure cancels the calls still in flight and is
// the error returned: the cause, not a sibling's induced
// context.Canceled.
func (c *Cluster) shardSkylines(ctx context.Context, rng zorder.Range, targets []int, since map[int]int) ([]plan.Group, []int, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	groups := make([]plan.Group, len(targets))
	batches := make([]int, len(targets))
	var (
		wg    sync.WaitGroup
		once  sync.Once
		cause error
	)
	for i, idx := range targets {
		wg.Add(1)
		go func(i, idx int) {
			defer wg.Done()
			sid, in := c.shardIDs[idx], c.table.Range(idx)
			clip := clipRange(rng, in)
			reply, err := c.shardSkyline(ctx, sid, clip, since[sid])
			g := reply.Group
			if err == nil {
				// A bound that survived the clip lies inside the shard's
				// range and tightens it.
				if len(clip.Lo) != 0 {
					in.Lo = clip.Lo
				}
				if len(clip.Hi) != 0 {
					in.Hi = clip.Hi
				}
				g, err = c.checkShardReply(sid, reply, in)
			}
			if err != nil {
				once.Do(func() {
					cause = err
					cancel()
				})
				return
			}
			groups[i], batches[i] = g, reply.Batches
		}(i, idx)
	}
	wg.Wait()
	return groups, batches, cause
}

// checkShardReply verifies what the merge takes on trust from a
// ShardSkyline reply and returns its rows with their Z-address column,
// encoded here: rows of the cluster's width, a batch count that is not
// negative, and every address inside in — the part of the query the
// shard owns. Any column the reply carried is ignored, so it cannot
// disagree with the rows. Anything else is ErrBadShardReply: one row
// outside its range would turn the sweep's direction into a wrong
// answer.
func (c *Cluster) checkShardReply(sid int, reply ShardSkyReply, in zorder.Range) (plan.Group, error) {
	bad := func(format string, args ...any) (plan.Group, error) {
		return plan.Group{}, fmt.Errorf("dist: shard %d: %w: %s", sid, ErrBadShardReply, fmt.Sprintf(format, args...))
	}
	g := reply.Group
	n := g.Len()
	if n > 0 && g.Block.Dims != c.enc.Dims() {
		return bad("%d-dimensional rows, want %d", g.Block.Dims, c.enc.Dims())
	}
	if reply.Batches < 0 {
		return bad("skyline covers %d batches", reply.Batches)
	}
	g.ZCol = zorder.ZCol{}
	if n > 0 {
		g.ZCol = c.enc.EncodeBlock(zorder.ZCol{}, g.Block)
	}
	for i := 0; i < n; i++ {
		if !in.Contains(g.ZCol.At(i)) {
			return bad("row %d has address %v outside [%v, %v)", i, g.ZCol.At(i), in.Lo, in.Hi)
		}
	}
	return g, nil
}

// clipRange drops the bounds of rng that lie outside own, the range a
// shard owns: the shard holds no row beyond them, so they select
// nothing, and a query that reaches the worker as "whole shard" or
// "prefix" is answered from its cached skyline.
func clipRange(rng, own zorder.Range) zorder.Range {
	if len(rng.Lo) != 0 && len(own.Lo) != 0 && zorder.Compare(rng.Lo, own.Lo) <= 0 {
		rng.Lo = nil
	}
	if len(rng.Hi) != 0 && len(own.Hi) != 0 && zorder.Compare(rng.Hi, own.Hi) >= 0 {
		rng.Hi = nil
	}
	return rng
}

// rangeKind names the shape of a clipped shard range for the RPC event.
func rangeKind(rng zorder.Range) string {
	switch {
	case len(rng.Lo) == 0 && len(rng.Hi) == 0:
		return "whole"
	case len(rng.Lo) == 0:
		return "prefix"
	case len(rng.Hi) == 0:
		return "suffix"
	}
	return "interior"
}

// shardSkyline asks one fresh replica of the shard's owning group for
// the shard skyline restricted to rng, or its delta from batch since
// on, retrying inside the group with the shard's policy and hedging to
// another member. When a replica answers shard-moved — the query raced
// a rebalance — the loop re-reads the shard map (the handoff updates it
// before dropping the source) and re-routes; every address keeps
// exactly one owner at every version, so convergence takes one hop per
// concurrent move.
func (c *Cluster) shardSkyline(ctx context.Context, sid int, rng zorder.Range, since int) (ShardSkyReply, error) {
	kind := rangeKind(rng)
	const maxHops = 4
	for hop := 0; ; hop++ {
		members, version := c.freshMembers(sid)
		if len(members) == 0 {
			return ShardSkyReply{}, fmt.Errorf("dist: shard %d: %w", sid, ErrShardDown)
		}
		args := ShardSkyArgs{RuleID: c.ruleID, MapVersion: version, ShardID: sid,
			Lo: rng.Lo, Hi: rng.Hi, Since: since}
		var reply ShardSkyReply
		_, err := c.inner.call(ctx, "Worker.ShardSkyline", args, &reply, callOpts{
			pool: members, hedge: true,
			note: func(sp *obs.Span, ev *obs.Event, err error) {
				sp.SetAttr("shard", sid)
				sp.SetAttr("range", kind)
				ev.SetQuery(fmt.Sprintf("shard=%d,%s", sid, kind))
				if err == nil {
					sp.SetAttr("outcome", reply.Outcome.String())
					ev.SetCache(reply.Outcome.String())
				}
			}})
		if err == nil {
			return reply, nil
		}
		if classify(err) != classShardMoved || hop >= maxHops {
			return ShardSkyReply{}, err
		}
	}
}

// ShardStats collects every reachable worker's resident shard
// inventory, keyed by worker address — the raw data behind skydist
// -shard-report. Each worker gets one attempt; unreachable workers are
// skipped.
func (c *Cluster) ShardStats(ctx context.Context) map[string]ShardStatsReply {
	out := make(map[string]ShardStatsReply)
	once := c.inner.pol
	once.retries = 0
	for w, addr := range c.inner.addrs {
		var reply ShardStatsReply
		if _, err := c.inner.call(ctx, "Worker.ShardStats", ShardStatsArgs{}, &reply,
			callOpts{pool: []int{w}, pin: true, pol: &once}); err == nil {
			out[addr] = reply
		}
	}
	return out
}
