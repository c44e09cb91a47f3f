// Command skydist coordinates a distributed skyline query across
// skyworker processes: phase 1 runs here (sampling, Z-order
// partitioning, ZDG/ZHG grouping), so does phase 2's map (the sample
// skyline filter and the routing), the per-group reduces run on the
// workers over TCP, and phase 3 merges their candidates here.
//
// Usage:
//
//	skyworker -listen :7071 & skyworker -listen :7072 &
//	skygen -dist anti -n 200000 -d 5 > anti.csv
//	skydist -workers localhost:7071,localhost:7072 -in anti.csv -report
//
// With -shard-groups, skydist instead runs the sharded cluster tier:
// worker groups own contiguous Z-ranges of the dataset, the input is
// inserted (routed + replicated) rather than streamed per query, and
// -handoff moves a shard between groups while the query loop runs —
// a rolling rebalance. See docs/CLUSTER.md.
//
//	skyworker -listen :7071 & skyworker -listen :7072 &
//	skyworker -listen :7073 & skyworker -listen :7074 &
//	skydist -shard-groups 'localhost:7071,localhost:7072;localhost:7073,localhost:7074' \
//	        -in anti.csv -handoff 0:1 -queries 4 -shard-report
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"zskyline/internal/codec"
	"zskyline/internal/dist"
	dominancepkg "zskyline/internal/dominance"
	"zskyline/internal/obs"
	"zskyline/internal/point"
)

func main() {
	var (
		workers   = flag.String("workers", "", "comma-separated worker addresses (required)")
		in        = flag.String("in", "-", "input file ('-' for stdin)")
		format    = flag.String("format", "csv", "input format: csv|binary")
		m         = flag.Int("m", 32, "number of groups")
		ratio     = flag.Float64("sample", 0.02, "sampling ratio")
		heuristic = flag.Bool("zhg", false, "use heuristic grouping instead of dominance-based")
		useSB     = flag.Bool("sb", false, "use sort-based local skylines instead of Z-search")
		seed      = flag.Int64("seed", 42, "sampling seed")
		dominance = flag.String("dominance", "pareto", "dominance relation: pareto | flex:w1,w2;... | kdom:k | robust:rho")
		report    = flag.Bool("report", false, "print the run report to stderr")
		stream    = flag.Bool("stream", false, "read a ZSKY binary file batch by batch without loading it, routing each batch here before its survivors go to the workers (requires -format binary and a file path)")
		trace     = flag.Bool("trace", false, "print a per-run trace report (phase + RPC spans, wire bytes) to stderr")
		metrics_  = flag.String("metrics-addr", "", "serve GET /metrics and /debug/pprof/ on this address during the run")
		rpcTO     = flag.Duration("rpc-timeout", 0, "per-attempt RPC deadline (0 = default 15s, negative = no deadline)")
		retries   = flag.Int("retries", 0, "retries after a failed RPC attempt (0 = default 3, negative = none)")
		hedge     = flag.Duration("hedge", 0, "duplicate a straggling reduce (or, sharded, shard-skyline) RPC on a second worker after this delay (0 = off)")
		redial    = flag.Duration("redial-interval", 0, "interval between redials of suspect/dead workers (0 = default 500ms, negative = off)")
		eventsOut = flag.String("events-out", "", "write the run's event log (query + per-RPC records) as NDJSON to this file ('-' for stderr)")

		shardGroups = flag.String("shard-groups", "", "sharded cluster mode: worker groups as 'a,b;c,d' (comma inside a group, semicolon between groups)")
		shards      = flag.Int("shards", 0, "shard count in cluster mode (0 = one per group)")
		handoff     = flag.String("handoff", "", "run a rolling handoff 'shardID:toGroup' concurrently with the query loop (cluster mode)")
		queries     = flag.Int("queries", 1, "number of skyline queries to run in cluster mode")
		shardReport = flag.Bool("shard-report", false, "print the shard map and per-worker residency to stderr (cluster mode)")
	)
	flag.Parse()

	reg := obs.NewRegistry()
	if *metrics_ != "" {
		addr, stopMetrics, err := obs.ServeMetrics(*metrics_, reg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "skydist: %v\n", err)
			os.Exit(1)
		}
		defer stopMetrics()
		fmt.Fprintf(os.Stderr, "skydist: metrics on http://%s/metrics\n", addr)
	}

	desc0, err := dominancepkg.ParseDescriptor(*dominance)
	if err != nil {
		fmt.Fprintf(os.Stderr, "skydist: %v\n", err)
		os.Exit(2)
	}

	if *shardGroups != "" {
		runCluster(clusterRun{
			groups: *shardGroups, shards: *shards, handoff: *handoff,
			queries: *queries, shardReport: *shardReport,
			in: *in, format: *format, useSB: *useSB, seed: *seed,
			dominance: desc0, rpcTO: *rpcTO, retries: *retries,
			hedge: *hedge, redial: *redial,
			report: *report, eventsOut: *eventsOut, reg: reg,
		})
		return
	}

	if *workers == "" {
		fmt.Fprintln(os.Stderr, "skydist: -workers or -shard-groups is required")
		os.Exit(2)
	}
	addrs := strings.Split(*workers, ",")
	for i := range addrs {
		addrs[i] = strings.TrimSpace(addrs[i])
	}

	cfg := dist.DefaultCoordinatorConfig()
	cfg.M = *m
	cfg.SampleRatio = *ratio
	cfg.Heuristic = *heuristic
	cfg.UseZS = !*useSB
	cfg.Seed = *seed
	desc, err := dominancepkg.ParseDescriptor(*dominance)
	if err != nil {
		fmt.Fprintf(os.Stderr, "skydist: %v\n", err)
		os.Exit(2)
	}
	cfg.Dominance = desc
	cfg.RPCTimeout = *rpcTO
	cfg.Retries = *retries
	cfg.Hedge = *hedge
	cfg.RedialInterval = *redial
	cfg.Metrics = reg
	coord, err := dist.NewCoordinator(cfg, addrs)
	if err != nil {
		fmt.Fprintf(os.Stderr, "skydist: %v\n", err)
		os.Exit(1)
	}
	defer coord.Close()

	ctx := context.Background()
	var tr *obs.Trace
	if *trace {
		tr = obs.NewTrace("skydist-query")
		ctx = obs.ContextWithTrace(ctx, tr)
	}

	var sky []point.Point
	var rep *dist.Report
	if *stream {
		if *format != "binary" || *in == "-" {
			fmt.Fprintln(os.Stderr, "skydist: -stream requires -format binary and a file path")
			os.Exit(2)
		}
		sky, rep, err = coord.SkylineFile(ctx, *in)
	} else {
		r := os.Stdin
		if *in != "-" {
			f, ferr := os.Open(*in)
			if ferr != nil {
				fmt.Fprintf(os.Stderr, "skydist: %v\n", ferr)
				os.Exit(1)
			}
			defer f.Close()
			r = f
		}
		var ds *point.Dataset
		switch *format {
		case "csv":
			ds, err = codec.ReadCSV(r)
		case "binary":
			ds, err = codec.ReadBinary(r)
		default:
			err = fmt.Errorf("unknown format %q", *format)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "skydist: %v\n", err)
			os.Exit(1)
		}
		sky, rep, err = coord.Skyline(ctx, ds)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "skydist: %v\n", err)
		os.Exit(1)
	}
	tr.Finish()
	if *eventsOut != "" {
		out := os.Stderr
		if *eventsOut != "-" {
			f, ferr := os.Create(*eventsOut)
			if ferr != nil {
				fmt.Fprintf(os.Stderr, "skydist: %v\n", ferr)
				os.Exit(1)
			}
			defer f.Close()
			out = f
		}
		if err := coord.Events().WriteNDJSON(out); err != nil {
			fmt.Fprintf(os.Stderr, "skydist: events: %v\n", err)
			os.Exit(1)
		}
	}
	for _, ws := range rep.Wire {
		w := obs.L("worker", ws.Addr)
		reg.Counter("zsky_rpc_wire_bytes_total", w, obs.L("dir", "sent")).Add(ws.Sent)
		reg.Counter("zsky_rpc_wire_bytes_total", w, obs.L("dir", "recv")).Add(ws.Recv)
	}
	if *trace {
		obs.WriteReport(os.Stderr, tr, reg)
	}
	writeSkyline(sky)
	if *report {
		rep.WriteTo(os.Stderr)
		fmt.Fprintf(os.Stderr, "workers=%d\n", rep.Workers)
		for _, ln := range rep.Ledger {
			fmt.Fprintf(os.Stderr, "rpc %s calls=%d req=%dB resp=%dB\n", ln.Method, ln.Calls, ln.ReqBytes, ln.RespBytes)
		}
	}
}

// clusterRun carries the flag values the sharded mode consumes.
type clusterRun struct {
	groups      string
	shards      int
	handoff     string
	queries     int
	shardReport bool
	in, format  string
	useSB       bool
	seed        int64
	dominance   dominancepkg.Descriptor
	rpcTO       time.Duration
	retries     int
	hedge       time.Duration
	redial      time.Duration
	report      bool
	eventsOut   string
	reg         *obs.Registry
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "skydist: "+format+"\n", args...)
	os.Exit(1)
}

// writeSkyline prints sky to stdout as CSV; a failed write exits 1.
func writeSkyline(sky []point.Point) {
	if err := codec.WriteCSV(os.Stdout, &point.Dataset{Points: sky}); err != nil {
		fatalf("%v", err)
	}
}

// runCluster drives the sharded tier: build the cluster, insert the
// dataset, run the query loop (with an optional concurrent rolling
// handoff), and print the final skyline to stdout.
func runCluster(rc clusterRun) {
	var groups [][]string
	for _, g := range strings.Split(rc.groups, ";") {
		var members []string
		for _, a := range strings.Split(g, ",") {
			if a = strings.TrimSpace(a); a != "" {
				members = append(members, a)
			}
		}
		if len(members) > 0 {
			groups = append(groups, members)
		}
	}

	r := os.Stdin
	if rc.in != "-" {
		f, err := os.Open(rc.in)
		if err != nil {
			fatalf("%v", err)
		}
		defer f.Close()
		r = f
	}
	var ds *point.Dataset
	var err error
	switch rc.format {
	case "csv":
		ds, err = codec.ReadCSV(r)
	case "binary":
		ds, err = codec.ReadBinary(r)
	default:
		err = fmt.Errorf("unknown format %q", rc.format)
	}
	if err != nil {
		fatalf("%v", err)
	}
	mins, maxs, err := ds.Bounds()
	if err != nil {
		fatalf("%v", err)
	}

	cfg := dist.ClusterConfig{
		Mins: mins, Maxs: maxs,
		UseZS: !rc.useSB, Dominance: rc.dominance,
		Shards:     rc.shards,
		RPCTimeout: rc.rpcTO, Retries: rc.retries, Hedge: rc.hedge,
		RedialInterval: rc.redial,
		Metrics:        rc.reg, Seed: rc.seed,
	}
	ctx := context.Background()
	c, err := dist.NewCluster(ctx, cfg, groups)
	if err != nil {
		fatalf("%v", err)
	}
	defer c.Close()

	const batch = 4096
	for lo := 0; lo < ds.Len(); lo += batch {
		hi := lo + batch
		if hi > ds.Len() {
			hi = ds.Len()
		}
		if err := c.Insert(ctx, ds.Points[lo:hi]); err != nil {
			fatalf("insert: %v", err)
		}
	}

	// Optional rolling handoff, concurrent with the query loop.
	handoffDone := make(chan error, 1)
	if rc.handoff != "" {
		var sid, to int
		if _, err := fmt.Sscanf(rc.handoff, "%d:%d", &sid, &to); err != nil {
			fatalf("bad -handoff %q (want shardID:toGroup): %v", rc.handoff, err)
		}
		go func() {
			rep, err := c.Handoff(ctx, sid, to)
			if err == nil {
				fmt.Fprintf(os.Stderr, "skydist: handoff shard=%d %d->%d rows=%d replicas=%d v=%d\n",
					rep.Shard, rep.FromGroup, rep.ToGroup, rep.Rows, rep.Replicas, rep.MapVersion)
			}
			handoffDone <- err
		}()
	} else {
		handoffDone <- nil
	}

	var sky []point.Point
	var rep *dist.ClusterReport
	n := rc.queries
	if n < 1 {
		n = 1
	}
	for q := 0; q < n; q++ {
		sky, rep, err = c.Skyline(ctx)
		if err != nil {
			fatalf("query %d: %v", q, err)
		}
	}
	if err := <-handoffDone; err != nil {
		fatalf("handoff: %v", err)
	}
	// One more query after the handoff settles, so stdout reflects the
	// post-rebalance map.
	if rc.handoff != "" {
		sky, rep, err = c.Skyline(ctx)
		if err != nil {
			fatalf("final query: %v", err)
		}
	}

	if rc.eventsOut != "" {
		out := os.Stderr
		if rc.eventsOut != "-" {
			f, err := os.Create(rc.eventsOut)
			if err != nil {
				fatalf("%v", err)
			}
			defer f.Close()
			out = f
		}
		if err := c.Events().WriteNDJSON(out); err != nil {
			fatalf("events: %v", err)
		}
	}

	writeSkyline(sky)

	if rc.shardReport {
		m := c.Map()
		fmt.Fprintf(os.Stderr, "shard map v%d: %d shards over %d groups\n",
			m.Version, m.NumShards(), c.Groups())
		rows := c.ShardRows()
		for _, s := range m.Shards {
			fmt.Fprintf(os.Stderr, "  shard %d -> group %d (%d rows)\n", s.ID, s.Group, rows[s.ID])
		}
		for addr, st := range c.ShardStats(ctx) {
			fmt.Fprintf(os.Stderr, "  worker %s v%d:", addr, st.MapVersion)
			for id, n := range st.Rows {
				fmt.Fprintf(os.Stderr, " shard%d=%d(sky=%d)", id, n, st.SkylineRows[id])
			}
			fmt.Fprintln(os.Stderr)
		}
	}
	if rc.report {
		fmt.Fprintf(os.Stderr, "groups=%d shards=%d routed=%d mapversion=%d\npoints=%d skyline=%d queries=%d\n",
			c.Groups(), rep.Shards, rep.Routed, rep.MapVersion, ds.Len(), len(sky), n)
		// What the last query pulled to the coordinator against what it
		// kept, and how it merged: after a sweep, the share of shard-skyline
		// rows the merge threw away is wire traffic a worker-side filter
		// could still save; a fold pulled only the rows new since the
		// previous full query.
		ratio := 1.0
		if rep.SkylineSize > 0 {
			ratio = float64(rep.Candidates) / float64(rep.SkylineSize)
		}
		fmt.Fprintf(os.Stderr, "merge=%s candidates=%d candidates/skyline=%.2f wire_sent=%dB wire_recv=%dB\n",
			rep.Merge, rep.Candidates, ratio, rep.WireSentBytes, rep.WireRecvBytes)
	}
}
