package dist

import (
	"context"
	cryptorand "crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"reflect"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"zskyline/internal/dominance"
	"zskyline/internal/metrics"
	"zskyline/internal/obs"
	"zskyline/internal/plan"
	"zskyline/internal/point"
	"zskyline/internal/transport"
	"zskyline/internal/zbtree"
	"zskyline/internal/zorder"
)

// CoordinatorConfig parameterizes a distributed run; it mirrors
// core.Config where the concepts overlap and adds the fault-tolerance
// policy every RPC obeys.
type CoordinatorConfig struct {
	// M is the target group count.
	M int
	// Delta is the partition expansion factor.
	Delta int
	// SampleRatio drives phase-1 reservoir sampling.
	SampleRatio float64
	// Bits is the Z-order resolution per dimension.
	Bits int
	// Fanout is the ZB-tree fanout.
	Fanout int
	// UseZS selects the local skyline algorithm on workers.
	UseZS bool
	// Heuristic selects ZHG instead of ZDG grouping.
	Heuristic bool
	// ChunkSize bounds the points per map task on the coordinator's pool
	// and per batch SkylineFile reads; 0 selects 8192.
	ChunkSize int
	// Seed drives sampling (and the retry jitter schedule).
	Seed int64
	// Dominance selects the dominance relation (see internal/dominance);
	// the zero value is classic Pareto dominance. The descriptor rides
	// the rule broadcast, so every worker computes under the same
	// relation.
	Dominance dominance.Descriptor

	// RPCTimeout bounds each RPC attempt. 0 selects 15s; negative
	// disables the per-attempt deadline (the context still applies).
	RPCTimeout time.Duration
	// Retries is how many times a failed call is re-issued on a live
	// worker, with exponential backoff and jitter between attempts.
	// 0 selects 3; negative disables retries.
	Retries int
	// Hedge, when positive, speculatively re-issues a straggling
	// reduce call on a second live worker after this delay and takes
	// whichever reply lands first. 0 disables hedging.
	Hedge time.Duration
	// RedialInterval is the period of the resurrection sweep that
	// re-dials suspect/dead workers, re-broadcasts the current rule,
	// and readmits them. 0 selects 500ms; negative disables
	// resurrection (a failed worker stays dead).
	RedialInterval time.Duration
	// DialTimeout bounds every worker dial (startup and redial).
	// 0 selects 2s.
	DialTimeout time.Duration
	// Metrics, when non-nil, receives the coordinator's
	// fault-tolerance counters (retries, resurrections, hedge wins,
	// RPC error classes) and per-state worker gauges. Nil creates a
	// private registry, readable via Coordinator.Metrics.
	Metrics *obs.Registry
	// Events, when non-nil, receives one structured record per query
	// and per RPC issued on a query's behalf (joined on the query's
	// request ID). Nil creates a private ring, readable via
	// Coordinator.Events.
	Events *obs.EventLog
}

// spec lowers the config to the backend-agnostic plan parameters.
// Phase 3 runs on the coordinator's own pool under plan's one schedule:
// one ZB-tree over every candidate, probed in row ranges.
func (cfg *CoordinatorConfig) spec() *plan.Spec {
	strat := plan.ZDG
	if cfg.Heuristic {
		strat = plan.ZHG
	}
	local := plan.SB
	if cfg.UseZS {
		local = plan.ZS
	}
	return &plan.Spec{
		Strategy:    strat,
		Local:       local,
		Merge:       plan.MergeZM,
		M:           cfg.M,
		Delta:       cfg.Delta,
		SampleRatio: cfg.SampleRatio,
		Bits:        cfg.Bits,
		Fanout:      cfg.Fanout,
		Seed:        cfg.Seed,
		ChunkSize:   cfg.ChunkSize,
		Dominance:   cfg.Dominance,
	}
}

// policy resolves the user-facing knobs into the internal policy:
// zero means default, negative means disabled.
func (cfg *CoordinatorConfig) policy() policy {
	pol := policy{
		rpcTimeout:  15 * time.Second,
		retries:     3,
		backoffBase: 25 * time.Millisecond,
		backoffMax:  time.Second,
		redial:      500 * time.Millisecond,
		dialTimeout: 2 * time.Second,
	}
	if cfg.RPCTimeout != 0 {
		pol.rpcTimeout = max(cfg.RPCTimeout, 0)
	}
	if cfg.Retries != 0 {
		pol.retries = max(cfg.Retries, 0)
	}
	if cfg.Hedge > 0 {
		pol.hedge = cfg.Hedge
	}
	if cfg.RedialInterval != 0 {
		pol.redial = max(cfg.RedialInterval, 0)
	}
	if cfg.DialTimeout > 0 {
		pol.dialTimeout = cfg.DialTimeout
	}
	return pol
}

// DefaultCoordinatorConfig mirrors core.Defaults for the distributed
// deployment, with the fault-tolerance defaults spelled out.
func DefaultCoordinatorConfig() CoordinatorConfig {
	return CoordinatorConfig{M: 32, Delta: 4, SampleRatio: 0.02, Bits: 16,
		Fanout: zbtree.DefaultFanout, UseZS: true,
		RPCTimeout: 15 * time.Second, Retries: 3,
		RedialInterval: 500 * time.Millisecond, DialTimeout: 2 * time.Second}
}

// Report describes a distributed run: the plan's shared report and
// what the run cost across the workers. It carries no tally: the
// workers count their own reduces, so a coordinator tally would
// under-count.
type Report struct {
	plan.Report
	// Workers is the coordinator's worker count.
	Workers int
	// Wire holds per-worker TCP byte totals since the coordinator
	// connected (cumulative across queries and reconnects on a reused
	// coordinator).
	Wire []WireStat
	// Ledger is this query's RPC traffic per method, in method order:
	// the calls issued and the exact request and response frame bytes
	// of each call's serving attempt, as its rpc event carries them.
	// Without retries or hedges it sums to the query's TCP bytes.
	Ledger []LedgerLine
}

// LedgerLine is one method's row of a query's RPC ledger.
type LedgerLine struct {
	Method    string
	Calls     int
	ReqBytes  int64
	RespBytes int64
}

// ledger collects a query's LedgerLines as its RPCs finish. It rides
// the query's context, so every call startRPC opens reaches it.
type ledger struct {
	mu    sync.Mutex
	lines map[string]LedgerLine
}

type ledgerKey struct{}

func (l *ledger) add(method string, req, resp int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	ln := l.lines[method]
	ln.Method = method
	ln.Calls++
	ln.ReqBytes += req
	ln.RespBytes += resp
	l.lines[method] = ln
}

func (l *ledger) sorted() []LedgerLine {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]LedgerLine, 0, len(l.lines))
	for _, ln := range l.lines {
		out = append(out, ln)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Method < out[j].Method })
	return out
}

// WireStat is one worker connection's byte totals as measured on the
// coordinator side of the TCP stream.
type WireStat struct {
	Addr string
	Sent int64
	Recv int64
}

// countConn wraps a net.Conn with byte counters for RPC wire
// accounting.
type countConn struct {
	net.Conn
	sent, recv *atomic.Int64
}

func (c countConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.recv.Add(int64(n))
	return n, err
}

func (c countConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.sent.Add(int64(n))
	return n, err
}

// wireCounter tracks one worker connection's totals.
type wireCounter struct {
	sent, recv atomic.Int64
}

// ruleCounter makes rule IDs unique across coordinators in this
// process; a random salt makes them unique across processes sharing
// workers, so a fresh coordinator can never collide with a stale rule
// cached from another one.
var ruleCounter atomic.Uint64

// workerState is one worker's position in the liveness state machine:
//
//	live ──rpc failure──▶ suspect ──redial fails──▶ dead
//	  ▲                      │                        │
//	  │                      └──────▶ resurrecting ◀──┘  (each sweep)
//	  └── ping + rule re-broadcast succeed ──┘
//
// Only live workers receive tasks. Suspect and dead workers are
// re-dialed every RedialInterval; a successful redial re-broadcasts
// the current rule before the worker rejoins the rotation, so a
// restarted process (empty rule cache) serves correctly. With
// resurrection disabled, suspect collapses into dead.
type workerState int32

const (
	wsLive workerState = iota
	wsSuspect
	wsDead
	wsResurrecting
)

var stateNames = [...]string{"live", "suspect", "dead", "resurrecting"}

// Coordinator drives a set of TCP workers through phases 1 and 2 and
// merges their candidates on its own cores (exec): after the last
// reduce reply no query touches the network again.
// Every RPC runs under the configured fault-tolerance policy:
// per-attempt deadlines, bounded retries with jittered backoff, and
// failover to live workers. A worker that fails an RPC is suspected
// and periodically re-dialed; it rejoins the rotation once a redial,
// ping, and rule re-broadcast succeed. A query fails with
// ErrClusterDown only when every worker is confirmed dead.
type Coordinator struct {
	cfg    CoordinatorConfig
	pol    policy
	addrs  []string
	wire   []*wireCounter
	salt   uint64
	reg    *obs.Registry
	events *obs.EventLog
	bo     *backoff
	// exec is the process's one in-process pool: phase 3 of every query,
	// and the Cluster's cross-shard sweep.
	exec *plan.LocalExec

	// all lists every worker index: the pool of a call that names none.
	all []int

	mu       sync.Mutex
	clients  []*transport.Client
	state    []workerState
	inflight []int
	lastRule *RuleBlob
	changed  chan struct{} // closed+replaced on any state/inflight change
	closed   bool
	// revivals counts resurrections. It moves before the revived worker
	// serves, so a Cluster that reads it at the start and the end of a
	// full query knows whether a restarted process could have answered.
	revivals atomic.Uint64

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// NewCoordinator dials every worker address (with the configured dial
// timeout) and verifies liveness. Startup is strict: any unreachable
// worker fails construction. After that, fault handling takes over.
func NewCoordinator(cfg CoordinatorConfig, workerAddrs []string) (*Coordinator, error) {
	if len(workerAddrs) == 0 {
		return nil, fmt.Errorf("dist: no workers")
	}
	if cfg.M < 1 || cfg.Delta < 1 || cfg.SampleRatio <= 0 || cfg.SampleRatio > 1 {
		return nil, fmt.Errorf("dist: invalid config %+v", cfg)
	}
	if cfg.ChunkSize <= 0 {
		cfg.ChunkSize = 8192
	}
	var saltBytes [4]byte
	if _, err := cryptorand.Read(saltBytes[:]); err != nil {
		return nil, fmt.Errorf("dist: salt: %w", err)
	}
	salt := uint64(binary.LittleEndian.Uint32(saltBytes[:]))
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	events := cfg.Events
	if events == nil {
		events = obs.NewEventLog(0)
	}
	c := &Coordinator{cfg: cfg, pol: cfg.policy(), addrs: workerAddrs,
		salt: salt, reg: reg, events: events, bo: newBackoff(cfg.Seed + int64(salt)),
		exec:     plan.NewLocalExec(0),
		all:      make([]int, len(workerAddrs)),
		state:    make([]workerState, len(workerAddrs)),
		inflight: make([]int, len(workerAddrs)),
		changed:  make(chan struct{}),
		stop:     make(chan struct{}),
	}
	for w, addr := range workerAddrs {
		c.all[w] = w
		conn, err := net.DialTimeout("tcp", addr, c.pol.dialTimeout)
		if err != nil {
			c.closeClients()
			return nil, fmt.Errorf("dist: dial %s: %w", addr, err)
		}
		// Count wire bytes per worker so runs can report real RPC
		// traffic alongside the per-call frame sizes.
		wc := &wireCounter{}
		cl := transport.NewClient(countConn{Conn: conn, sent: &wc.sent, recv: &wc.recv})
		var pong PingReply
		if err := c.callDirect(cl, "Worker.Ping", PingArgs{}, &pong); err != nil {
			cl.Close()
			c.closeClients()
			return nil, fmt.Errorf("dist: ping %s: %w", addr, err)
		}
		c.clients = append(c.clients, cl)
		c.wire = append(c.wire, wc)
	}
	c.mu.Lock()
	c.updateGaugesLocked()
	c.mu.Unlock()
	if c.pol.redial > 0 {
		c.wg.Add(1)
		go c.resurrector()
	}
	return c, nil
}

// Metrics returns the registry holding the coordinator's
// fault-tolerance counters and per-state worker gauges.
func (c *Coordinator) Metrics() *obs.Registry { return c.reg }

// Events returns the event log holding one record per query and per
// RPC issued on a query's behalf.
func (c *Coordinator) Events() *obs.EventLog { return c.events }

// WireStats returns per-worker TCP byte totals since connection
// (cumulative across reconnects).
func (c *Coordinator) WireStats() []WireStat {
	out := make([]WireStat, len(c.wire))
	for i, wc := range c.wire {
		out[i] = WireStat{Addr: c.addrs[i], Sent: wc.sent.Load(), Recv: wc.recv.Load()}
	}
	return out
}

// closeClients hangs up every current connection (startup error path).
func (c *Coordinator) closeClients() {
	for _, cl := range c.clients {
		if cl != nil {
			cl.Close()
		}
	}
}

// Close stops the resurrector and hangs up all worker connections.
func (c *Coordinator) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	clients := append([]*transport.Client(nil), c.clients...)
	c.signalLocked()
	c.mu.Unlock()
	c.stopOnce.Do(func() { close(c.stop) })
	c.wg.Wait()
	var first error
	for _, cl := range clients {
		if cl != nil {
			if err := cl.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}

// Skyline runs the full distributed pipeline and returns the exact
// skyline of ds: the coordinator filters and routes every row on its
// own pool, each group's survivors cross the wire once to a worker's
// ReduceGroup, and the candidates are merged here.
func (c *Coordinator) Skyline(ctx context.Context, ds *point.Dataset) ([]point.Point, *Report, error) {
	shape := "skyline:n=0"
	if ds != nil {
		shape = fmt.Sprintf("skyline:n=%d,dims=%d", ds.Len(), ds.Dims)
	}
	return c.runQuery(ctx, "dist/skyline", shape, func(ctx context.Context, ex plan.Executor) ([]point.Point, *plan.Report, error) {
		return plan.Run(ctx, c.cfg.spec(), ds, ex, nil)
	})
}

// SkylineFile is Skyline over a ZSKY binary file, never loaded into the
// coordinator's memory: plan.RunFile reads it in passes, filtering and
// routing each batch on the coordinator's own pool as it arrives, so
// memory holds a few batches plus the survivors. This is the deployment
// shape for datasets larger than the coordinator — the same regime the
// paper's HDFS-resident inputs live in.
func (c *Coordinator) SkylineFile(ctx context.Context, path string) ([]point.Point, *Report, error) {
	return c.runQuery(ctx, "dist/skyline-file", "file:"+path, func(ctx context.Context, ex plan.Executor) ([]point.Point, *plan.Report, error) {
		return plan.RunFile(ctx, c.cfg.spec(), path, ex, nil)
	})
}

// runQuery runs one batch query q on a fresh rpcExec and records it as
// one "query" event joined by request ID to the "rpc" events it caused;
// a ctx without a request ID gets a fresh one, so standalone
// coordinator runs are observable too. The report carries q's phase
// numbers, the wire totals and the query's ledger.
func (c *Coordinator) runQuery(ctx context.Context, route, shape string, q func(context.Context, plan.Executor) ([]point.Point, *plan.Report, error)) ([]point.Point, *Report, error) {
	id := obs.RequestIDFrom(ctx)
	if id == "" {
		id = obs.NewRequestID()
		ctx = obs.ContextWithRequestID(ctx, id)
	}
	ev := &obs.Event{ID: id, Kind: "query", Route: route, Query: shape, Dominance: c.cfg.Dominance.String()}
	led := &ledger{lines: map[string]LedgerLine{}}
	wireBefore := c.WireStats()
	start := time.Now()
	sky, prep, err := q(context.WithValue(ctx, ledgerKey{}, led), &rpcExec{LocalExec: c.exec, c: c})
	ev.DurationMS = float64(time.Since(start).Microseconds()) / 1000
	if err != nil {
		ev.SetError(classify(err).String(), err.Error())
		c.events.RecordForced(*ev)
		return nil, nil, err
	}
	rep := &Report{Report: *prep, Workers: len(c.addrs), Wire: c.WireStats(), Ledger: led.sorted()}
	ev.SetPhase("preprocess", rep.Preprocess)
	ev.SetPhase("phase2", rep.Phase2)
	ev.SetPhase("phase3", rep.Phase3)
	// Wire totals are cumulative per connection; the event carries this
	// query's delta.
	for i, ws := range rep.Wire {
		ev.WireSentBytes += ws.Sent - wireBefore[i].Sent
		ev.WireRecvBytes += ws.Recv - wireBefore[i].Recv
	}
	ev.SetResults(len(sky))
	c.events.Record(*ev)
	if sp := obs.SpanFrom(ctx); sp != nil {
		sp.SetAttr("workers", len(c.addrs))
		for _, ws := range rep.Wire {
			sp.SetAttr("wire."+ws.Addr, fmt.Sprintf("sent=%dB recv=%dB", ws.Sent, ws.Recv))
		}
	}
	return sky, rep, nil
}

// startRPC opens one per-RPC child span under ctx's current span and
// one "rpc" event joined to the owning query via ctx's request ID.
// The call layer (attempt) annotates both with the exact on-wire
// request and response frame sizes of the serving leg — measured from
// the frame headers, never estimated. The returned closure records the
// serving worker (post-failover) and outcome, ends the span, and
// commits the event (errors bypass sampling); span and event are
// handed to the call layer so retry and hedge attempts show up on
// both. Events record even with tracing off — the span is simply nil
// then, and every span method tolerates that. A batch query's ledger
// (runQuery) gets the same frame sizes.
func (c *Coordinator) startRPC(ctx context.Context, method string) (*obs.Span, *obs.Event, func(worker int, err error)) {
	sp := obs.SpanFrom(ctx).Child("rpc/" + method)
	ev := &obs.Event{
		ID:     obs.NewRequestID(),
		Parent: obs.RequestIDFrom(ctx),
		Kind:   "rpc",
		Route:  method,
	}
	start := time.Now()
	return sp, ev, func(worker int, err error) {
		if worker >= 0 && worker < len(c.addrs) {
			sp.SetAttr("worker", c.addrs[worker])
			ev.Worker = c.addrs[worker]
		}
		sp.End()
		ev.DurationMS = float64(time.Since(start).Microseconds()) / 1000
		if led, ok := ctx.Value(ledgerKey{}).(*ledger); ok {
			led.add(method, ev.WireSentBytes, ev.WireRecvBytes)
		}
		if err != nil {
			ev.SetError(classify(err).String(), err.Error())
			c.events.RecordForced(*ev)
			return
		}
		c.events.Record(*ev)
	}
}

// ---- liveness state machine ----

// signalLocked wakes every goroutine waiting for a state or inflight
// change. Callers hold c.mu.
func (c *Coordinator) signalLocked() {
	close(c.changed)
	c.changed = make(chan struct{})
}

// setStateLocked moves worker w to state s, refreshes the per-state
// gauges, and wakes waiters. Callers hold c.mu.
func (c *Coordinator) setStateLocked(w int, s workerState) {
	c.state[w] = s
	c.updateGaugesLocked()
	c.signalLocked()
}

func (c *Coordinator) updateGaugesLocked() {
	var n [len(stateNames)]int
	for _, s := range c.state {
		n[s]++
	}
	for s, name := range stateNames {
		c.reg.Gauge("zsky_dist_workers", obs.L("state", name)).Set(float64(n[s]))
	}
}

// markSuspect demotes a live worker after a transport failure. With
// resurrection disabled the worker is immediately dead.
func (c *Coordinator) markSuspect(w int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed || c.state[w] != wsLive {
		return
	}
	if c.pol.redial > 0 {
		c.setStateLocked(w, wsSuspect)
	} else {
		c.setStateLocked(w, wsDead)
	}
}

// await is the one liveness wait. It runs pick under c.mu until pick
// returns a worker, waiting out each state or inflight change between
// tries. It fails once every worker of pool is confirmed dead (none is
// live, suspect or resurrecting, so none can serve or come back before
// the next sweep) — with ErrClusterDown for a nil pool, which is every
// worker, and with ErrShardDown for a shard's members — or with ctx's
// error, or after Close.
func (c *Coordinator) await(ctx context.Context, pool []int, pick func() int) (int, error) {
	down := ErrShardDown
	if pool == nil {
		pool, down = c.all, ErrClusterDown
	}
	for {
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			return -1, errCoordinatorClosed
		}
		if w := pick(); w >= 0 {
			c.mu.Unlock()
			return w, nil
		}
		dead, ch := true, c.changed
		for _, w := range pool {
			dead = dead && c.state[w] == wsDead
		}
		c.mu.Unlock()
		if dead {
			return -1, down
		}
		select {
		case <-ctx.Done():
			return -1, ctx.Err()
		case <-ch:
		}
	}
}

// acquire reserves a live worker with no task in flight, waiting for
// one.
func (c *Coordinator) acquire(ctx context.Context) (int, error) {
	return c.await(ctx, nil, func() int {
		for w, s := range c.state {
			if s == wsLive && c.inflight[w] == 0 {
				c.inflight[w]++
				return w
			}
		}
		return -1
	})
}

// release returns a worker reserved by acquire to the rotation.
func (c *Coordinator) release(w int) {
	c.mu.Lock()
	if c.inflight[w] > 0 {
		c.inflight[w]--
	}
	c.signalLocked()
	c.mu.Unlock()
}

// pickLiveExcept returns a live worker of pool (nil: every worker)
// other than skip for hedging, preferring an idle one; ok is false when
// none exists right now. Shard calls hedge inside the owning group,
// since only its members hold the data.
func (c *Coordinator) pickLiveExcept(skip int, pool []int) (int, bool) {
	if pool == nil {
		pool = c.all
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	pick, found := -1, false
	for _, w := range pool {
		if w == skip || c.state[w] != wsLive {
			continue
		}
		if c.inflight[w] == 0 {
			return w, true
		}
		if !found {
			pick, found = w, true
		}
	}
	return pick, found
}

// ---- resurrection ----

// resurrector periodically sweeps suspect/dead workers: re-dial,
// ping, re-broadcast the current rule, readmit.
func (c *Coordinator) resurrector() {
	defer c.wg.Done()
	t := time.NewTicker(c.pol.redial)
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-t.C:
		}
		c.sweep()
	}
}

// sweep attempts one resurrection round over every suspect/dead
// worker, concurrently, and waits for the round to settle.
func (c *Coordinator) sweep() {
	c.mu.Lock()
	var targets []int
	for w := range c.addrs {
		if c.state[w] == wsSuspect || c.state[w] == wsDead {
			c.setStateLocked(w, wsResurrecting)
			targets = append(targets, w)
		}
	}
	c.mu.Unlock()
	var wg sync.WaitGroup
	for _, w := range targets {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c.resurrect(w)
		}(w)
	}
	wg.Wait()
}

// resurrect tries to bring worker w back: dial with timeout, ping,
// re-broadcast the current rule, then swap the connection in and mark
// the worker live. Any failure confirms it dead until the next sweep.
func (c *Coordinator) resurrect(w int) {
	fail := func() {
		c.mu.Lock()
		if !c.closed {
			c.setStateLocked(w, wsDead)
		}
		c.mu.Unlock()
	}
	conn, err := net.DialTimeout("tcp", c.addrs[w], c.pol.dialTimeout)
	if err != nil {
		fail()
		return
	}
	cl := transport.NewClient(countConn{Conn: conn, sent: &c.wire[w].sent, recv: &c.wire[w].recv})
	var pong PingReply
	if err := c.callDirect(cl, "Worker.Ping", PingArgs{}, &pong); err != nil {
		cl.Close()
		fail()
		return
	}
	c.mu.Lock()
	blob := c.lastRule
	c.mu.Unlock()
	if blob != nil {
		// Readmitting a worker without the query's rule would fail its
		// first task (a restarted process has an empty rule cache), so
		// the rule rides along with resurrection.
		var ack LoadRuleReply
		if err := c.callDirect(cl, "Worker.LoadRule", LoadRuleArgs{Rule: *blob}, &ack); err != nil {
			cl.Close()
			fail()
			return
		}
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		cl.Close()
		return
	}
	old := c.clients[w]
	c.clients[w] = cl
	c.revivals.Add(1)
	c.setStateLocked(w, wsLive)
	c.reg.Counter("zsky_dist_resurrections_total", obs.L("worker", c.addrs[w])).Add(1)
	c.mu.Unlock()
	if old != nil {
		old.Close()
	}
}

// callDirect invokes one method on a specific client with the
// per-attempt deadline but no retry/failover — the building block for
// startup pings and resurrection probes.
func (c *Coordinator) callDirect(cl *transport.Client, method string, args transport.Marshaler, reply transport.Unmarshaler) error {
	id, err := methodID(method)
	if err != nil {
		return err
	}
	ctx := context.Background()
	if c.pol.rpcTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.pol.rpcTimeout)
		defer cancel()
	}
	_, _, err = cl.Call(ctx, id, args, reply)
	if errors.Is(err, context.DeadlineExceeded) {
		return errAttemptTimeout
	}
	return err
}

// ---- the retrying, hedging call layer ----

// callOpts tunes one call.
type callOpts struct {
	// pool is the workers the call may run on; nil is every worker. When
	// the whole pool is dead the call fails with ErrClusterDown for a nil
	// pool and with ErrShardDown for a shard's members.
	pool []int
	// from is the pool position the first attempt starts its search at:
	// for a reduce, the worker the scheduler reserved.
	from int
	// pin confines every attempt to pool[0], whatever its state: a
	// replica-addressed write must land on that member or the member goes
	// stale, so it never fails over.
	pin bool
	// hedge allows a speculative duplicate on a second pool member after
	// the policy's hedge delay (reduce tasks and shard reads only: they
	// are idempotent and few, so duplicates are cheap insurance).
	hedge bool
	// pol, when non-nil, overrides the coordinator's policy for this
	// call — how the sharded tier applies per-shard timeout/retry/hedge
	// settings. attempt takes it resolved.
	pol *policy
	// note, when non-nil, annotates the call's span and event with its
	// outcome before they are recorded.
	note func(sp *obs.Span, ev *obs.Event, err error)
	// sp and ev collect attempt and hedge detail; call opens them.
	sp *obs.Span
	ev *obs.Event
}

// call is the one loop that issues and re-issues a worker RPC: a
// per-attempt deadline, classification, bounded retries with jittered
// backoff, optional hedging inside the pool, and a rule re-broadcast to
// a worker that answers rule-missing. Each attempt goes to the first
// live pool member at or after the rotation position, waiting while
// none is live; a retry starts after the worker that failed. A pinned
// call re-issues on its one worker in whatever state it is. A fatal or
// shard-moved verdict returns at once: only the caller can re-route.
// The call is one rpc event and span, carrying its attempt count; it
// returns the worker that served.
func (c *Coordinator) call(ctx context.Context, method string, args transport.Marshaler, reply transport.Unmarshaler, opt callOpts) (served int, err error) {
	var done func(int, error)
	opt.sp, opt.ev, done = c.startRPC(ctx, method)
	defer func() {
		if opt.note != nil {
			opt.note(opt.sp, opt.ev, err)
		}
		done(served, err)
	}()
	if opt.pol == nil {
		opt.pol = &c.pol
	}
	pol, pool := opt.pol, opt.pool
	if pool == nil {
		pool = c.all
	}
	from := opt.from
	live := func() int {
		for i := range pool {
			if w := pool[(from+i)%len(pool)]; c.state[w] == wsLive {
				return w
			}
		}
		return -1
	}
	var lastErr error
	for attempt := 0; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return -1, err
		}
		w := pool[0]
		if !opt.pin {
			if w, err = c.await(ctx, opt.pool, live); err != nil {
				if lastErr != nil {
					err = fmt.Errorf("%v: %w", lastErr, err)
				}
				return -1, fmt.Errorf("dist: %s: %w", method, err)
			}
		}
		served, err = c.attempt(ctx, method, args, reply, w, opt)
		opt.ev.SetAttempts(attempt + 1)
		if err == nil {
			if attempt > 0 {
				opt.sp.SetAttr("attempts", attempt+1)
			}
			return served, nil
		}
		lastErr = err
		class := classify(err)
		c.reg.Counter("zsky_dist_rpc_errors_total",
			obs.L("method", method), obs.L("class", class.String())).Add(1)
		if class == classFatal || class == classShardMoved || ctx.Err() != nil {
			return served, err
		}
		if class == classRuleMissing && served >= 0 {
			// The worker is alive but lost the rule (e.g. a process
			// restarted at the same address between sweeps): reinstall
			// it before the retry.
			c.mu.Lock()
			blob := c.lastRule
			c.mu.Unlock()
			if blob == nil {
				c.markSuspect(served)
			} else if _, err := c.attempt(ctx, "Worker.LoadRule", LoadRuleArgs{Rule: *blob},
				&LoadRuleReply{}, served, callOpts{pol: pol}); err != nil {
				c.markSuspect(served)
			}
		}
		if attempt >= pol.retries {
			return served, fmt.Errorf("dist: %s: attempts exhausted: %w", method, lastErr)
		}
		c.reg.Counter("zsky_dist_retries_total", obs.L("method", method)).Add(1)
		sleep(ctx, c.bo.delay(pol, attempt))
		if served >= 0 {
			from = slices.Index(pool, served) + 1
		}
	}
}

// legRes is one attempt leg's outcome. call carries the finished
// transport call so the winner's exact frame sizes reach the span and
// event.
type legRes struct {
	w    int
	rv   transport.Unmarshaler
	call *transport.Call
	err  error
}

// attempt runs one (possibly hedged) attempt of a call. Each leg gets
// a fresh reply value so an abandoned straggler reply can never race a
// retry writing the caller's reply; the winner is copied out, along
// with its measured request/response frame sizes.
func (c *Coordinator) attempt(ctx context.Context, method string, args transport.Marshaler, reply transport.Unmarshaler, primary int, opt callOpts) (int, error) {
	id, err := methodID(method)
	if err != nil {
		return -1, err
	}
	pol := opt.pol
	resCh := make(chan legRes, 2)
	leg := func(w int) {
		c.mu.Lock()
		cl := c.clients[w]
		c.mu.Unlock()
		if cl == nil {
			resCh <- legRes{w: w, err: errNotConnected}
			return
		}
		rv := newReplyLike(reply)
		call := cl.Go(id, args, rv, make(chan *transport.Call, 1))
		var timeout <-chan time.Time
		if pol.rpcTimeout > 0 {
			t := time.NewTimer(pol.rpcTimeout)
			defer t.Stop()
			timeout = t.C
		}
		select {
		case done := <-call.Done:
			resCh <- legRes{w: w, rv: rv, call: done, err: done.Err}
		case <-timeout:
			resCh <- legRes{w: w, err: errAttemptTimeout}
		case <-ctx.Done():
			resCh <- legRes{w: w, err: ctx.Err()}
		}
	}
	go leg(primary)
	legs := 1
	var hedgeC <-chan time.Time
	if opt.hedge && pol.hedge > 0 {
		t := time.NewTimer(pol.hedge)
		defer t.Stop()
		hedgeC = t.C
	}
	var lastErr error
	lastW := primary
	for {
		select {
		case r := <-resCh:
			if r.err == nil {
				copyReply(reply, r.rv)
				if r.call != nil {
					opt.sp.SetAttr("req_bytes", r.call.ReqBytes)
					opt.sp.SetAttr("resp_bytes", r.call.RespBytes)
					opt.ev.SetWire(r.call.ReqBytes, r.call.RespBytes)
				}
				if r.w != primary {
					c.reg.Counter("zsky_dist_hedge_wins_total", obs.L("method", method)).Add(1)
					opt.sp.SetAttr("hedge_win", c.addrs[r.w])
				}
				return r.w, nil
			}
			if classify(r.err) == classRetryable {
				c.markSuspect(r.w)
			}
			lastErr, lastW = r.err, r.w
			if legs--; legs == 0 {
				return lastW, lastErr
			}
		case <-hedgeC:
			hedgeC = nil
			if w2, ok := c.pickLiveExcept(primary, opt.pool); ok {
				c.reg.Counter("zsky_dist_hedges_total", obs.L("method", method)).Add(1)
				opt.sp.SetAttr("hedged", c.addrs[w2])
				opt.ev.SetHedged()
				go leg(w2)
				legs++
			}
		case <-ctx.Done():
			return lastW, ctx.Err()
		}
	}
}

// newReplyLike allocates a fresh zero value of reply's pointee type.
// Reply values are always pointers to wire structs, so the fresh value
// satisfies the same Unmarshaler interface.
func newReplyLike(reply transport.Unmarshaler) transport.Unmarshaler {
	return reflect.New(reflect.TypeOf(reply).Elem()).Interface().(transport.Unmarshaler)
}

// copyReply copies the winning leg's reply into the caller's.
func copyReply(dst, src transport.Unmarshaler) {
	reflect.ValueOf(dst).Elem().Set(reflect.ValueOf(src).Elem())
}

// ---- executor plumbing ----

// rpcExec is the plan.Executor that fans reduce tasks out over the
// coordinator's worker connections, with failover. Everything else runs
// on the embedded pool: the map tasks filter and route every row before
// any of it is shipped, and phase 3 merges where the reduce replies
// land.
// One rpcExec serves one query: Broadcast assigns the query's rule ID.
type rpcExec struct {
	*plan.LocalExec
	c      *Coordinator
	ruleID uint64
}

// Broadcast serializes the rule and installs it on every live worker
// (the distributed-cache step).
func (ex *rpcExec) Broadcast(ctx context.Context, r *plan.Rule) error {
	rd, err := r.Data()
	if err != nil {
		return err
	}
	ex.ruleID = ex.c.salt<<32 | ruleCounter.Add(1)
	return ex.c.broadcast(ctx, RuleBlob{ID: ex.ruleID, Data: *rd})
}

// RunReduces implements plan.Executor via Worker.ReduceGroup RPCs: each
// group's rows and Z-column travel out once, its candidates come back
// once, and checkReduceReply vets them before the merge sees them.
func (ex *rpcExec) RunReduces(ctx context.Context, r *plan.Rule, groups []plan.Group, _ *metrics.Tally) ([]plan.Group, error) {
	outs := make([]plan.Group, len(groups))
	err := ex.c.forEach(ctx, len(groups), func(i, worker int) error {
		var reply ReduceReply
		_, err := ex.c.call(ctx, "Worker.ReduceGroup",
			ReduceArgs{RuleID: ex.ruleID, Group: groups[i]}, &reply, callOpts{from: worker, hedge: true})
		if err == nil {
			err = checkReduceReply(r.Encoder(), groups[i], reply.Candidates)
		}
		outs[i] = reply.Candidates
		outs[i].Gid = groups[i].Gid
		return err
	})
	return outs, err
}

// checkReduceReply verifies what the merge takes on trust from a
// ReduceGroup reply: rows of the rule's width, no more of them than the
// group sent, and a Z-address column that is either absent (relations
// other than Pareto send none) or one address of the rule's width per
// row. Anything else is errBadReduceReply.
func checkReduceReply(enc *zorder.Encoder, sent, got plan.Group) error {
	bad := func(format string, args ...any) error {
		return fmt.Errorf("dist: group %d: %w: %s", sent.Gid, errBadReduceReply, fmt.Sprintf(format, args...))
	}
	n := got.Len()
	switch {
	case n > 0 && got.Block.Dims != enc.Dims():
		return bad("%d-dimensional rows, want %d", got.Block.Dims, enc.Dims())
	case n > sent.Len():
		return bad("%d candidates from %d rows", n, sent.Len())
	case len(got.ZCol.Data) > 0 && got.ZCol.Words != enc.Words():
		return bad("%d-word addresses, want %d", got.ZCol.Words, enc.Words())
	case len(got.ZCol.Data) > 0 && len(got.ZCol.Data) != n*got.ZCol.Words:
		return bad("%d address words for %d rows", len(got.ZCol.Data), n)
	}
	return nil
}

// broadcast installs the rule on every live worker and records it as
// the coordinator's current rule, so resurrection can re-install it.
// The broadcast succeeds once at least one worker holds the rule;
// workers that miss it are suspected and receive it when they rejoin.
// With no worker live, it waits out resurrection and fails with
// ErrClusterDown only when every worker is confirmed dead.
func (c *Coordinator) broadcast(ctx context.Context, blob RuleBlob) error {
	c.mu.Lock()
	c.lastRule = &blob
	c.mu.Unlock()
	// An offer is one attempt: a worker that misses the rule gets it on
	// resurrection instead.
	once := c.pol
	once.retries = 0
	for {
		// Offer the rule to every live worker, waiting while none is.
		var targets []int
		if _, err := c.await(ctx, nil, func() int {
			targets = targets[:0]
			for w, s := range c.state {
				if s == wsLive {
					targets = append(targets, w)
				}
			}
			if len(targets) == 0 {
				return -1
			}
			return targets[0]
		}); err != nil {
			if errors.Is(err, ErrClusterDown) {
				return fmt.Errorf("dist: rule broadcast: %w", err)
			}
			return err
		}
		var (
			wg       sync.WaitGroup
			mu       sync.Mutex
			okCount  int
			fatalErr error
		)
		for _, w := range targets {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				_, err := c.call(ctx, "Worker.LoadRule", LoadRuleArgs{Rule: blob}, &LoadRuleReply{},
					callOpts{pool: []int{w}, pin: true, pol: &once})
				mu.Lock()
				defer mu.Unlock()
				if err == nil {
					okCount++
				} else if classify(err) == classFatal && fatalErr == nil {
					fatalErr = err
				}
			}(w)
		}
		wg.Wait()
		if err := ctx.Err(); err != nil {
			return err
		}
		if fatalErr != nil {
			return fmt.Errorf("dist: rule broadcast rejected: %w", fatalErr)
		}
		if okCount > 0 {
			return nil
		}
		// Nobody took the rule: every target failed and is suspected. Offer
		// it again once a worker is live (a resurrected worker already
		// carries lastRule).
	}
}

// forEach fans n tasks out over the live workers with bounded
// concurrency (one in-flight task per live worker) and failover.
// Admission tracks the liveness state machine: resurrected workers
// rejoin the rotation mid-phase, and admission only fails once every
// worker is confirmed dead.
func (c *Coordinator) forEach(ctx context.Context, n int, f func(task, worker int) error) error {
	if n == 0 {
		return nil
	}
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}
	for i := 0; i < n; i++ {
		mu.Lock()
		stop := firstErr != nil
		mu.Unlock()
		if stop {
			break
		}
		worker, err := c.acquire(ctx)
		if err != nil {
			fail(err)
			break
		}
		wg.Add(1)
		go func(i, worker int) {
			defer wg.Done()
			defer c.release(worker)
			if err := f(i, worker); err != nil {
				fail(fmt.Errorf("dist: task %d: %w", i, err))
			}
		}(i, worker)
	}
	wg.Wait()
	return firstErr
}
