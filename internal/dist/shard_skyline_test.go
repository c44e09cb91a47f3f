package dist

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"

	"zskyline/internal/dominance"
	"zskyline/internal/gen"
	"zskyline/internal/metrics"
	"zskyline/internal/obs"
	"zskyline/internal/plan"
	"zskyline/internal/point"
	"zskyline/internal/seq"
	"zskyline/internal/zbtree"
	"zskyline/internal/zorder"
)

// bareWorker builds a Worker with no listener, holding one unit-box
// cluster-style rule under ID 1 — the shard handlers are called
// directly, so the tests below see exactly one replica's behaviour.
func bareWorker(t testing.TB, dims, bits int, local plan.LocalAlgo, desc dominance.Descriptor) (*Worker, *plan.Rule) {
	t.Helper()
	rd := plan.RuleData{
		Dims: dims, Bits: bits, Mins: make([]float64, dims), Maxs: make([]float64, dims),
		Local: local, Merge: plan.MergeZM, Dominance: desc,
	}
	for i := range rd.Maxs {
		rd.Maxs[i] = 1
	}
	rule, err := plan.FromData(&rd)
	if err != nil {
		t.Fatal(err)
	}
	return &Worker{rules: map[uint64]*plan.Rule{1: rule}, addr: "bare", reg: obs.NewRegistry(),
		resident: make(map[int]*residentShard),
		staged:   make(map[stageKey]*residentShard)}, rule
}

// shardFrames encodes a batch the way Cluster.insertShard ships it.
func shardFrames(t testing.TB, enc *zorder.Encoder, b point.Block) (blockFrame, zFrame []byte) {
	t.Helper()
	if b.Len() == 0 {
		return nil, nil
	}
	blockFrame, err := b.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	zFrame, err = enc.EncodeBlock(zorder.ZCol{}, b).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return blockFrame, zFrame
}

func storeBatch(t testing.TB, w *Worker, enc *zorder.Encoder, b point.Block) {
	t.Helper()
	bf, zf := shardFrames(t, enc, b)
	if err := w.StoreShard(StoreShardArgs{RuleID: 1, ShardID: 0, BlockFrame: bf, ZFrame: zf},
		&StoreShardReply{}); err != nil {
		t.Fatal(err)
	}
}

// oracleUnder is the reference skyline of pts under prov: all pairs for
// Pareto, the sequential provider kernel otherwise.
func oracleUnder(prov dominance.Provider, pts []point.Point) []point.Point {
	if dominance.IsPareto(prov) {
		return seq.BruteForce(pts)
	}
	return seq.SkylineUnder(prov, pts, nil)
}

// inRange keeps the points whose address falls in rng.
func inRange(enc *zorder.Encoder, pts []point.Point, rng zorder.Range) []point.Point {
	var out []point.Point
	for _, p := range pts {
		if rng.Contains(enc.Encode(p)) {
			out = append(out, p)
		}
	}
	return out
}

// TestShardSkylineCacheMatchesBruteForce drives one replica through
// seeded random interleavings of stores (empty batches and exact
// duplicates included), whole / prefix / suffix / interior / empty
// range queries, handoff commits and drop + re-store, and compares
// every answer, as a multiset, with the reference skyline of the rows
// resident at that moment restricted to the range. Under flex —
// transitive, but a dominator may have the larger Z-address — a prefix
// query must not be cut from the cached skyline. Under Pareto every
// whole-shard query is followed by a delta query from a random cursor:
// its reply must be the whole shard's reference skyline ∩ the rows of
// the batches from the cursor on, and a cursor beyond the batch list
// must get the whole skyline back.
func TestShardSkylineCacheMatchesBruteForce(t *testing.T) {
	const dims = 3
	flex := dominance.Descriptor{Kind: dominance.KindFlex,
		Weights: [][]float64{{1, 1, 1}, {3, 1, 1}}}
	cases := []struct {
		name  string
		local plan.LocalAlgo
		desc  dominance.Descriptor
	}{
		{"pareto-zs", plan.ZS, dominance.Descriptor{}},
		{"pareto-sb", plan.SB, dominance.Descriptor{}},
		{"flex", plan.ZS, flex},
	}
	for _, tc := range cases {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", tc.name, seed), func(t *testing.T) {
				w, rule := bareWorker(t, dims, 6, tc.local, tc.desc)
				enc, prov := rule.Encoder(), rule.Provider()
				pareto := dominance.IsPareto(prov)
				rng := rand.New(rand.NewSource(seed))
				var held []point.Point      // rows resident on the replica
				var batches [][]point.Point // held, as the replica's batch list
				resident := false
				version, epoch := uint64(1), uint64(0)
				seen := map[SkyOutcome]int{}

				// Coarse coordinates make coordinate ties, Z ties and
				// dominated rows all common.
				randomBlock := func(n int) point.Block {
					bb := point.NewBlockBuilder(dims, n)
					for i := 0; i < n; i++ {
						if len(held) > 0 && rng.Intn(5) == 0 {
							bb.Append(held[rng.Intn(len(held))])
							continue
						}
						row := bb.Extend()
						for j := range row {
							row[j] = float64(rng.Intn(12)) / 12
						}
					}
					return bb.Build()
				}
				randomAddr := func() zorder.ZAddr {
					return enc.Encode(randomBlock(1).Row(0))
				}
				query := func(qr zorder.Range, label string) {
					t.Helper()
					var reply ShardSkyReply
					err := w.ShardSkyline(ShardSkyArgs{RuleID: 1, ShardID: 0, MapVersion: version,
						Lo: qr.Lo, Hi: qr.Hi}, &reply)
					if !resident {
						if err == nil || !strings.Contains(err.Error(), "not resident") {
							t.Fatalf("%s on a dropped shard: %v, want not resident", label, err)
						}
						return
					}
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					want := oracleUnder(prov, inRange(enc, held, qr))
					sameSet(t, reply.Group.Points(), want, label)
					if reply.Group.Gid != 0 || reply.Group.ZCol.Len() != 0 {
						t.Fatalf("%s: reply gid %d, %d addresses", label, reply.Group.Gid, reply.Group.ZCol.Len())
					}
					if qr.Lo == nil && qr.Hi == nil && pareto {
						since := 1 + rng.Intn(len(batches)+2)
						var delta ShardSkyReply
						if err := w.ShardSkyline(ShardSkyArgs{RuleID: 1, ShardID: 0, MapVersion: version,
							Since: since}, &delta); err != nil {
							t.Fatalf("%s, delta from %d: %v", label, since, err)
						}
						if delta.Batches != len(batches) {
							t.Fatalf("%s: reply covers %d batches, the replica holds %d", label, delta.Batches, len(batches))
						}
						if since <= len(batches) {
							var fresh []point.Point
							for _, b := range batches[since:] {
								fresh = append(fresh, b...)
							}
							want = intersect(want, fresh)
						}
						sameSet(t, delta.Group.Points(), want, fmt.Sprintf("%s, delta from %d of %d", label, since, len(batches)))
					}
					if qr.Lo != nil || (qr.Hi != nil && !pareto) {
						if reply.Outcome != SkyComputed {
							t.Fatalf("%s answered %v: only whole-shard and Pareto prefix queries may use the cache",
								label, reply.Outcome)
						}
					}
					seen[reply.Outcome]++
				}

				for step := 0; step < 120; step++ {
					switch op := rng.Intn(12); {
					case op < 4: // store, sometimes an empty batch
						b := randomBlock(rng.Intn(4) * rng.Intn(12))
						storeBatch(t, w, enc, b)
						held = append(held, b.Clone().Points()...)
						if b.Len() > 0 {
							batches = append(batches, b.Clone().Points())
						}
						resident = true
					case op < 6:
						query(zorder.Range{}, "whole")
					case op < 8:
						query(zorder.Range{Hi: randomAddr()}, "prefix")
					case op == 8:
						query(zorder.Range{Lo: randomAddr()}, "suffix")
					case op == 9:
						lo, hi := randomAddr(), randomAddr()
						if zorder.Compare(lo, hi) > 0 && rng.Intn(3) > 0 {
							lo, hi = hi, lo // keep a third of the inverted (empty) ranges
						}
						query(zorder.Range{Lo: lo, Hi: hi}, "interior")
					case op == 10: // handoff commit: wholesale replace
						epoch++
						held, batches = held[:0], nil
						for i := rng.Intn(3); i > 0; i-- {
							b := randomBlock(1 + rng.Intn(30))
							bf, zf := shardFrames(t, enc, b)
							if err := w.StageShard(StageShardArgs{ShardID: 0, Epoch: epoch,
								BlockFrame: bf, ZFrame: zf}, &StageShardReply{}); err != nil {
								t.Fatal(err)
							}
							held = append(held, b.Clone().Points()...)
							batches = append(batches, b.Clone().Points())
						}
						version++
						if err := w.CommitShard(CommitShardArgs{ShardID: 0, Epoch: epoch,
							MapVersion: version}, &CommitShardReply{}); err != nil {
							t.Fatal(err)
						}
						resident = true
						query(zorder.Range{}, "whole after commit")
					case op == 11: // drop; a later store re-creates the shard
						version++
						if err := w.DropShard(DropShardArgs{ShardID: 0, MapVersion: version},
							&DropShardReply{}); err != nil {
							t.Fatal(err)
						}
						held, batches, resident = held[:0], nil, false
						query(zorder.Range{}, "whole after drop")
					}
				}
				query(zorder.Range{}, "final whole")
				if resident {
					// A cursor is only for a whole-shard Pareto query.
					refused := []ShardSkyArgs{{Since: -1}, {Since: 1, Hi: randomAddr()}, {Since: 1, Lo: randomAddr()}}
					if !pareto {
						refused = append(refused, ShardSkyArgs{Since: 1})
					}
					for _, args := range refused {
						args.RuleID, args.MapVersion = 1, version
						if err := w.ShardSkyline(args, &ShardSkyReply{}); err == nil {
							t.Errorf("cursor %d with bounds %v..%v answered", args.Since, args.Lo, args.Hi)
						}
					}
				}
				var stats ShardStatsReply
				if err := w.ShardStats(ShardStatsArgs{}, &stats); err != nil {
					t.Fatal(err)
				}
				if resident {
					want := len(oracleUnder(prov, held))
					if got := stats.SkylineRows[0]; got != int64(want) {
						t.Errorf("ShardStats reports a %d-row cached skyline, want %d", got, want)
					}
				}
				if seen[SkyCached] == 0 || seen[SkyFolded] == 0 || seen[SkyComputed] == 0 {
					t.Errorf("outcomes %v: a path went unexercised", seen)
				}
			})
		}
	}
}

// TestShardSkylineRacesStore is the hedge-leg case: several callers
// query one shard, whole and by prefix, while batches keep arriving.
// Every reply must be the oracle of some prefix of the store sequence —
// never a torn mix — and the race detector must stay quiet.
func TestShardSkylineRacesStore(t *testing.T) {
	const dims, batches, perBatch = 3, 24, 25
	w, rule := bareWorker(t, dims, 8, plan.ZS, dominance.Descriptor{})
	enc := rule.Encoder()
	ds := gen.Synthetic(gen.AntiCorrelated, batches*perBatch, dims, 77)
	blk := point.BlockOf(dims, ds.Points)
	hi := enc.Encode(point.Point{0.6, 0.6, 0.6})

	key := func(pts []point.Point) string {
		rows := make([]string, len(pts))
		for i, p := range pts {
			rows[i] = fmt.Sprint(p)
		}
		sort.Strings(rows)
		return strings.Join(rows, ";")
	}
	legalWhole, legalPrefix := map[string]bool{}, map[string]bool{}
	for n := 0; n <= batches; n++ {
		stored := ds.Points[:n*perBatch]
		legalWhole[key(seq.BruteForce(stored))] = true
		legalPrefix[key(seq.BruteForce(inRange(enc, stored, zorder.Range{Hi: hi})))] = true
	}

	storeBatch(t, w, enc, point.Block{Dims: dims}) // seed residency
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				args := ShardSkyArgs{RuleID: 1, ShardID: 0}
				legal := legalWhole
				if (g+i)%2 == 1 {
					args.Hi, legal = hi, legalPrefix
				}
				var reply ShardSkyReply
				if err := w.ShardSkyline(args, &reply); err != nil {
					t.Error(err)
					return
				}
				if !legal[key(reply.Group.Points())] {
					t.Errorf("caller %d query %d (hi=%v): %d rows match no prefix of the store sequence",
						g, i, args.Hi, reply.Group.Len())
					return
				}
			}
		}(g)
	}
	for _, b := range blk.ChunkBy(perBatch) {
		storeBatch(t, w, enc, b)
	}
	close(stop)
	wg.Wait()
	var reply ShardSkyReply
	if err := w.ShardSkyline(ShardSkyArgs{RuleID: 1, ShardID: 0}, &reply); err != nil {
		t.Fatal(err)
	}
	sameSet(t, reply.Group.Points(), seq.BruteForce(ds.Points), "after the last store")
}

// TestShardRangeBoundWidth sends a one-word bound into a two-word
// address space. zorder.Compare would index past it and panic the
// worker, taking every memory-only shard along; both tiers must answer
// with an error instead and keep serving.
func TestShardRangeBoundWidth(t *testing.T) {
	const dims = 6 // 6 dims x 12 bits = 72 bits: two words
	short := zorder.ZAddr{1 << 40}

	w, rule := bareWorker(t, dims, 12, plan.ZS, dominance.Descriptor{})
	if rule.Encoder().Words() != 2 {
		t.Fatalf("encoder has %d words, test wants 2", rule.Encoder().Words())
	}
	ds := gen.Synthetic(gen.Independent, 400, dims, 9)
	storeBatch(t, w, rule.Encoder(), point.BlockOf(dims, ds.Points))
	for _, args := range []ShardSkyArgs{
		{RuleID: 1, ShardID: 0, Lo: short},
		{RuleID: 1, ShardID: 0, Hi: short},
		{RuleID: 1, ShardID: 0, Lo: short, Hi: zorder.ZAddr{1, 2, 3}},
	} {
		if err := w.ShardSkyline(args, &ShardSkyReply{}); err == nil {
			t.Errorf("worker accepted bounds lo=%v hi=%v", args.Lo, args.Hi)
		}
	}
	// A zero-length bound beside a real one is "no bound", as nil is: the
	// wire decoder happens to produce nil, a direct caller need not, and
	// zorder.Range used to compare addresses against the empty slice.
	mid := rule.Encoder().Encode(ds.Points[0])
	var reply ShardSkyReply
	if err := w.ShardSkyline(ShardSkyArgs{RuleID: 1, ShardID: 0, Lo: mid, Hi: []uint64{}}, &reply); err != nil {
		t.Fatalf("suffix query with a zero-length upper bound: %v", err)
	}
	sameSet(t, reply.Group.Block.Points(),
		seq.BruteForce(inRange(rule.Encoder(), ds.Points, zorder.Range{Lo: mid})), "suffix with zero-length hi")

	g0, _ := startGroup(t, 1)
	g1, _ := startGroup(t, 1)
	c, err := NewCluster(context.Background(), testClusterConfig(dims), [][]string{g0, g1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	insertBatches(t, c, ds.Points, 150)
	if _, _, err := c.SkylineRange(context.Background(), short, nil); err == nil {
		t.Error("cluster accepted a one-word lower bound")
	}
	if _, _, err := c.SkylineRangeBroadcast(context.Background(), nil, short); err == nil {
		t.Error("cluster accepted a one-word upper bound")
	}
	// An empty non-nil bound means "no bound", like nil.
	got, _, err := c.SkylineRange(context.Background(), zorder.ZAddr{}, zorder.ZAddr{})
	if err != nil {
		t.Fatalf("cluster after the rejected queries: %v", err)
	}
	sameSet(t, got, seq.SB(ds.Points, nil), "after the rejected queries")
}

// TestClusterHandoffDiscardsCachedSkyline moves a shard A -> B -> A with
// its skyline cached on A, changing the shard's skyline while it lives
// on B. A whole-shard query on the target right after each commit must
// be exact: a cache that outlived CommitShard's replace or DropShard
// would answer with the skyline from before the move.
func TestClusterHandoffDiscardsCachedSkyline(t *testing.T) {
	g0, s0 := startGroup(t, 1)
	g1, _ := startGroup(t, 1)
	cfg := testClusterConfig(4)
	c, err := NewCluster(context.Background(), cfg, [][]string{g0, g1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	ds := gen.Synthetic(gen.Independent, 2000, 4, 17)
	insertBatches(t, c, ds.Points, 300)
	held := append([]point.Point(nil), ds.Points...)
	own := zorder.Range{Hi: zorder.ZAddr(c.Map().Cuts[0])} // shard 0, exactly

	wholeShard0 := func(label string) {
		t.Helper()
		got, rep, err := c.SkylineRange(ctx, own.Lo, own.Hi)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if rep.Routed != 1 {
			t.Fatalf("%s: routed to %d shards, want 1", label, rep.Routed)
		}
		sameSet(t, got, rangeOracle(t, cfg, held, own), label)
	}
	wholeShard0("before any move") // caches shard 0's skyline on A
	wholeShard0("cached on A")
	if n := s0[0].Metrics().Counter("zsky_shard_skyline_total",
		obs.L("shard", "0"), obs.L("outcome", "cached")).Value(); n != 1 {
		t.Fatalf("A served %d whole-shard queries from its cache, want 1: the range was not clipped to the shard", n)
	}
	// The RPC event explains the answer: which shard, which range shape,
	// and how the replica produced it.
	evs := c.Events().Snapshot()
	if last := evs[len(evs)-2]; last.Route != "Worker.ShardSkyline" ||
		last.Query != "shard=0,whole" || last.Cache != "cached" {
		t.Fatalf("rpc event route=%q query=%q cache=%q, want Worker.ShardSkyline / shard=0,whole / cached",
			last.Route, last.Query, last.Cache)
	}

	if _, err := c.Handoff(ctx, 0, 1); err != nil {
		t.Fatal(err)
	}
	wholeShard0("on B right after the commit")
	// The origin has address 0 — shard 0 — and dominates every row.
	origin := point.Point{0, 0, 0, 0}
	if err := c.Insert(ctx, []point.Point{origin}); err != nil {
		t.Fatal(err)
	}
	held = append(held, origin)
	wholeShard0("on B after the insert")

	if _, err := c.Handoff(ctx, 0, 0); err != nil {
		t.Fatal(err)
	}
	wholeShard0("back on A right after the commit")
	got, _, err := c.Skyline(ctx)
	if err != nil {
		t.Fatal(err)
	}
	sameSet(t, got, seq.SB(held, nil), "full skyline after A->B->A")
}

// intersect returns the rows of a that b holds, as multisets.
func intersect(a, b []point.Point) []point.Point {
	left := map[string]int{}
	for _, p := range b {
		left[fmt.Sprint(p)]++
	}
	var out []point.Point
	for _, p := range a {
		if k := fmt.Sprint(p); left[k] > 0 {
			left[k]--
			out = append(out, p)
		}
	}
	return out
}

// ---- microbenchmarks ----

// benchShard loads one replica with the cluster-mixed shard shape:
// independent d=8 rows arriving in 128-row batches, Z-search kernel,
// two-word addresses. It returns the median address for range bounds.
func benchShard(b testing.TB, rows int) (*Worker, *zorder.Encoder, zorder.ZAddr, *gen.Source) {
	const dims, batch = 8, 128
	w, rule := bareWorker(b, dims, 16, plan.ZS, dominance.Descriptor{})
	enc := rule.Encoder()
	src := gen.NewSource(gen.Independent, 1<<30, dims, 42)
	var all zorder.ZCol
	for n := 0; n < rows; n += batch {
		blk, err := src.Next(batch)
		if err != nil {
			b.Fatal(err)
		}
		storeBatch(b, w, enc, blk)
		all = enc.EncodeBlock(all, blk)
	}
	order := make([]int, all.Len())
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool { return all.Compare(order[i], order[j]) < 0 })
	return w, enc, all.At(order[len(order)/2]).Clone(), src
}

// TestShardSuffixCacheIsNoFilter counts what probing a suffix's rows
// against the cached skyline's rows in the suffix would save the kernel,
// on BenchmarkShardSkylineSuffix's shard. Nothing: a cached row that
// dominates a suffix row has the smaller Z-address, so Z-search meets it
// first and already holds it in its running skyline when it tests that
// row. The probe only adds its own tests. The counts are deterministic
// (EXPERIMENTS.md "Fold each full query's new rows").
func TestShardSuffixCacheIsNoFilter(t *testing.T) {
	w, enc, mid, _ := benchShard(t, 15000)
	var whole ShardSkyReply
	if err := w.ShardSkyline(ShardSkyArgs{RuleID: 1}, &whole); err != nil {
		t.Fatal(err)
	}
	res, rule := w.resident[0], w.rules[1]
	suffix := zorder.Range{Lo: mid}
	filtered := make([]plan.Group, len(res.groups))
	for i, g := range res.groups {
		filtered[i] = filterGroupRange(g, suffix)
	}
	in := concatGroups(filtered)
	st := zbtree.NewStoreWithZCol(enc, in.Block, in.ZCol)
	sky := res.sky.fold.Skyline()
	from := sort.Search(sky.Len(), func(i int) bool { return zorder.Compare(sky.ZCol.At(i), mid) >= 0 })
	cached := make(map[string]bool, sky.Len()-from)
	for i := from; i < sky.Len(); i++ {
		cached[fmt.Sprint(sky.Block.Row(i))] = true
	}
	var cachedRows []int32
	for i := 0; i < in.Len(); i++ {
		if cached[fmt.Sprint(in.Block.Row(i))] {
			cachedRows = append(cachedRows, int32(i))
		}
	}

	var alone metrics.Tally
	want := rule.LocalSkylineGroup(in, &alone)

	var probed metrics.Tally
	tree := zbtree.BuildRows(st, zbtree.DefaultFanout, cachedRows, &probed)
	var keep []int32
	for i := int32(0); i < int32(in.Len()); i++ {
		if !tree.DominatesRow(i) {
			keep = append(keep, i)
		}
	}
	survivors := plan.Group{}
	survivors.Block, survivors.ZCol = st.CompactRows(keep)
	got := rule.LocalSkylineGroup(survivors, &probed)

	sameSet(t, got.Points(), want.Points(), "kernel after the probe")
	a, p := alone.Snapshot(), probed.Snapshot()
	t.Logf("suffix rows %d, cached rows in the suffix %d, its skyline %d", in.Len(), len(cachedRows), want.Len())
	t.Logf("kernel alone: %d dominance tests, %d region tests", a.DominanceTests, a.RegionTests)
	t.Logf("probe, then kernel: %d dominance tests, %d region tests", p.DominanceTests, p.RegionTests)
	if p.DominanceTests <= a.DominanceTests || p.RegionTests <= a.RegionTests {
		t.Errorf("the probe saved tests: %+v against %+v", p, a)
	}
}

func benchShardSkyline(b *testing.B, w *Worker, args ShardSkyArgs) {
	var reply ShardSkyReply
	if err := w.ShardSkyline(args, &reply); err != nil { // warm the cache
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.ShardSkyline(args, &reply); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(reply.Group.Len()), "rows")
}

func BenchmarkShardSkylineWhole(b *testing.B) {
	w, _, _, _ := benchShard(b, 15000)
	benchShardSkyline(b, w, ShardSkyArgs{RuleID: 1})
}

func BenchmarkShardSkylinePrefix(b *testing.B) {
	w, _, mid, _ := benchShard(b, 15000)
	benchShardSkyline(b, w, ShardSkyArgs{RuleID: 1, Hi: mid})
}

func BenchmarkShardSkylineSuffix(b *testing.B) {
	w, _, mid, _ := benchShard(b, 15000)
	benchShardSkyline(b, w, ShardSkyArgs{RuleID: 1, Lo: mid})
}

// BenchmarkShardSkylineAfterInsert times the first whole-shard query
// after each 128-row store — the fold — with the store itself outside
// the timed region. The shard grows by one batch per iteration, as it
// does under cluster-mixed.
func BenchmarkShardSkylineAfterInsert(b *testing.B) {
	w, enc, _, src := benchShard(b, 15000)
	args := ShardSkyArgs{RuleID: 1}
	var reply ShardSkyReply
	if err := w.ShardSkyline(args, &reply); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		blk, err := src.Next(128)
		if err != nil {
			b.Fatal(err)
		}
		storeBatch(b, w, enc, blk)
		b.StartTimer()
		if err := w.ShardSkyline(args, &reply); err != nil {
			b.Fatal(err)
		}
		if reply.Outcome != SkyFolded {
			b.Fatalf("query after a store answered %v", reply.Outcome)
		}
	}
	b.ReportMetric(float64(reply.Group.Len()), "rows")
}
