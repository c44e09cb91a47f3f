package dist

import (
	"fmt"
	"net"
	"sync"
	"time"

	"zskyline/internal/obs"
	"zskyline/internal/plan"
	"zskyline/internal/transport"
)

// Worker is the service a worker process exposes over the framed
// transport. All phase semantics live in the broadcast plan.Rule; the
// worker caches rules, executes their tasks, and — in the sharded tier
// — holds resident shard data (see worker_shard.go). Every served call
// is recorded in the worker's metrics registry (request counts, exact
// on-wire frame bytes, latency histograms), which skyworker serves at
// --metrics-addr.
type Worker struct {
	mu    sync.RWMutex
	rules map[uint64]*plan.Rule
	addr  string
	reg   *obs.Registry

	// Sharded-tier state: resident shard data, handoff staging areas,
	// and the highest installed shard-map version. maxResident, when
	// positive, caps resident rows per shard (admission control for
	// memory-bounded workers).
	smu         sync.RWMutex
	shardVer    uint64
	resident    map[int]*residentShard
	staged      map[stageKey]*residentShard
	maxResident int
}

// observe records one served call into the worker's registry with the
// exact on-wire request and response frame sizes the transport
// measured (header included) — no payload estimates.
func (w *Worker) observe(method uint16, dur time.Duration, reqBytes, respBytes int64) {
	m := obs.L("method", shortMethodName(method))
	w.reg.Counter("zsky_rpc_requests_total", m).Add(1)
	w.reg.Counter("zsky_rpc_request_bytes_total", m).Add(reqBytes)
	w.reg.Counter("zsky_rpc_response_bytes_total", m).Add(respBytes)
	w.reg.Histogram("zsky_rpc_seconds", nil, m).Observe(dur.Seconds())
}

// ServeFrame implements transport.Handler: decode the method's args
// frame, run the call, and hand the reply back for the server to frame.
// Worker verdicts (returned errors) travel as error frames, which the
// coordinator's classifier sees as transport.ServerError.
func (w *Worker) ServeFrame(method uint16, payload []byte) (transport.Marshaler, error) {
	switch method {
	case mPing:
		return serve(payload, w.Ping)
	case mLoadRule:
		return serve(payload, w.LoadRule)
	case mReduceGroup:
		return serve(payload, w.ReduceGroup)
	case mStoreShard:
		return serve(payload, w.StoreShard)
	case mShardSkyline:
		return serve(payload, w.ShardSkyline)
	case mPullShard:
		return serve(payload, w.PullShard)
	case mStageShard:
		return serve(payload, w.StageShard)
	case mCommitShard:
		return serve(payload, w.CommitShard)
	case mDropStaged:
		return serve(payload, w.DropStaged)
	case mDropShard:
		return serve(payload, w.DropShard)
	case mShardStats:
		return serve(payload, w.ShardStats)
	}
	return nil, fmt.Errorf("%w id %d", errUnknownMethod, method)
}

// serve is one ServeFrame arm: decode call's args from payload, run
// call, and hand back its reply for the server to frame.
func serve[A any, PA interface {
	*A
	DecodeFrom([]byte) error
}, R transport.Marshaler](payload []byte, call func(A, *R) error) (transport.Marshaler, error) {
	var args A
	if err := PA(&args).DecodeFrom(payload); err != nil {
		return nil, err
	}
	var reply R
	if err := call(args, &reply); err != nil {
		return nil, err
	}
	return reply, nil
}

// faultInterceptor adapts a FaultPlan to the transport's frame
// interceptor seam: the plan keeps matching on "Worker.X" names (the
// spec syntax operators and tests use), translated from the frame's
// method id per call.
type faultInterceptor struct {
	plan *FaultPlan
}

// Intercept consults the plan for the incoming call's verdict.
func (fi faultInterceptor) Intercept(method uint16) transport.Verdict {
	rule := fi.plan.match(methodName(method))
	if rule == nil {
		return transport.Verdict{}
	}
	switch rule.Action {
	case FaultSever:
		return transport.Verdict{Sever: true}
	case FaultDelay:
		return transport.Verdict{Delay: rule.Delay}
	case FaultDrop:
		return transport.Verdict{Drop: true}
	}
	return transport.Verdict{}
}

// WorkerServer wraps a Worker with its listener lifecycle. Close
// terminates both the listener and every active connection, so a
// closed worker is immediately dead from a coordinator's perspective.
type WorkerServer struct {
	worker   *Worker
	listener net.Listener
	faults   *FaultPlan
	wg       sync.WaitGroup
	mu       sync.Mutex
	closed   bool
	conns    map[net.Conn]struct{}
}

// StartWorker launches a worker server on addr (use "127.0.0.1:0"
// for an ephemeral port) and serves until Close.
func StartWorker(addr string) (*WorkerServer, error) {
	return StartWorkerWithOptions(addr, WorkerOptions{})
}

// WorkerOptions tunes a worker server beyond its address.
type WorkerOptions struct {
	// Faults, when non-nil, routes serving through a deterministic
	// FaultPlan that can delay, drop or sever the Nth call of a method:
	// the fault-injection suite and skyworker -fault exercise the
	// coordinator's retry, deadline, hedging and resurrection paths
	// with it.
	Faults *FaultPlan
	// MaxResidentRows, when positive, caps resident rows per shard:
	// StoreShard and StageShard calls that would exceed it are
	// rejected, which the coordinator surfaces as a fatal insert error.
	MaxResidentRows int
}

// StartWorkerWithOptions launches a worker with the full option set.
func StartWorkerWithOptions(addr string, opts WorkerOptions) (*WorkerServer, error) {
	faults := opts.Faults
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("dist: listen %s: %w", addr, err)
	}
	w := &Worker{rules: make(map[uint64]*plan.Rule), addr: ln.Addr().String(),
		reg:      obs.NewRegistry(),
		resident: make(map[int]*residentShard), staged: make(map[stageKey]*residentShard),
		maxResident: opts.MaxResidentRows}
	sopts := transport.ServeOptions{Observe: w.observe}
	if faults != nil {
		sopts.Intercept = faultInterceptor{plan: faults}
	}
	ws := &WorkerServer{worker: w, listener: ln, faults: faults,
		conns: map[net.Conn]struct{}{}}
	ws.wg.Add(1)
	go func() {
		defer ws.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return // listener closed
			}
			ws.mu.Lock()
			if ws.closed {
				ws.mu.Unlock()
				conn.Close()
				return
			}
			ws.conns[conn] = struct{}{}
			ws.mu.Unlock()
			ws.wg.Add(1)
			go func() {
				defer ws.wg.Done()
				transport.ServeConn(conn, w, sopts)
				ws.mu.Lock()
				delete(ws.conns, conn)
				ws.mu.Unlock()
			}()
		}
	}()
	return ws, nil
}

// Addr returns the worker's listen address.
func (ws *WorkerServer) Addr() string { return ws.worker.addr }

// Metrics returns the worker's RPC metrics registry.
func (ws *WorkerServer) Metrics() *obs.Registry { return ws.worker.reg }

// Close stops accepting connections and severs every active one.
func (ws *WorkerServer) Close() error {
	ws.mu.Lock()
	if ws.closed {
		ws.mu.Unlock()
		return nil
	}
	ws.closed = true
	for conn := range ws.conns {
		conn.Close()
	}
	ws.conns = map[net.Conn]struct{}{}
	ws.mu.Unlock()
	return ws.listener.Close()
}

// Ping implements liveness checks.
func (w *Worker) Ping(_ PingArgs, reply *PingReply) error {
	reply.Addr = w.addr
	return nil
}

// LoadRule installs (or confirms) a broadcast rule. A shard map riding
// the blob is installed unconditionally, BEFORE the rule-cache check:
// rebalances re-broadcast the same rule ID with a newer map, and a
// cached rule must never swallow an ownership update.
func (w *Worker) LoadRule(args LoadRuleArgs, reply *LoadRuleReply) error {
	if !args.Rule.Shards.Empty() {
		w.installShardMap(args.Rule.Shards.Version)
	}
	w.mu.RLock()
	_, have := w.rules[args.Rule.ID]
	w.mu.RUnlock()
	if have {
		reply.Cached = true
		return nil
	}
	r, err := plan.FromData(&args.Rule.Data)
	if err != nil {
		return err
	}
	w.mu.Lock()
	w.rules[args.Rule.ID] = r
	w.mu.Unlock()
	reply.Cached = false
	return nil
}

func (w *Worker) rule(id uint64) (*plan.Rule, error) {
	w.mu.RLock()
	r := w.rules[id]
	w.mu.RUnlock()
	if r == nil {
		return nil, verdictf(transport.StatusRuleMissing, "dist: rule %d not loaded on %s", id, w.addr)
	}
	return r, nil
}

// verdictf is a worker verdict whose status code tells the coordinator
// what cures it, so it is never read out of the message.
func verdictf(s transport.Status, format string, args ...any) error {
	return transport.ServerError{Status: s, Msg: fmt.Sprintf(format, args...)}
}

// ReduceGroup is phase 2's reduce: the skyline of one group's routed
// points, answered as positions into the group, which the coordinator
// still holds. It is the worker's only batch task: the coordinator
// filters and routes every row itself.
func (w *Worker) ReduceGroup(args ReduceArgs, reply *ReduceRowsReply) error {
	r, err := w.rule(args.RuleID)
	if err != nil {
		return err
	}
	reply.Rows = r.LocalSkylineRows(args.Group, nil)
	return nil
}
