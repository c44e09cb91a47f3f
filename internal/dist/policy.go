package dist

import (
	"context"
	"errors"
	"io"
	"math/rand"
	"net"
	"sync"
	"time"

	"zskyline/internal/transport"
)

// ErrClusterDown reports that no worker is live (or can become live)
// to serve a call. Callers match it with errors.Is: a coordinator
// returns it wrapped with the failing method so the message stays
// diagnostic while the identity stays typed.
var ErrClusterDown = errors.New("dist: no live workers")

// ErrShardDown reports that a shard has no serving replica left: every
// member of its owning group is dead or marked stale. Match with
// errors.Is; the cluster wraps it with the shard ID.
var ErrShardDown = errors.New("dist: shard has no live replica")

// ErrBadShardReply reports a ShardSkyline reply the coordinator cannot
// merge soundly: rows of the wrong width, a negative batch count, or a
// row whose address lies outside the range the shard was asked for.
// The query fails rather than answer from it. Match with errors.Is; the
// cluster wraps it with the shard ID and the violation.
var ErrBadShardReply = errors.New("dist: malformed shard skyline reply")

// errBadReduceReply reports a ReduceGroup reply the coordinator cannot
// merge soundly: rows of the wrong width, more rows than the group sent,
// or a Z-address column that does not line up with them. The query
// fails rather than answer from it.
var errBadReduceReply = errors.New("dist: malformed reduce reply")

// errCoordinatorClosed is returned by calls racing Close.
var errCoordinatorClosed = errors.New("dist: coordinator closed")

// errAttemptTimeout marks one RPC attempt that exceeded the per-call
// deadline. It is retryable: the straggling worker is suspected and
// the task re-issued elsewhere.
var errAttemptTimeout = errors.New("dist: rpc attempt timed out")

// errNotConnected marks an attempt routed to a worker whose connection
// is currently torn down (awaiting resurrection). Retryable.
var errNotConnected = errors.New("dist: worker not connected")

// policy is the resolved fault-tolerance configuration every RPC
// obeys. Zero values mean "disabled" here; CoordinatorConfig
// normalization maps user-facing defaults onto it.
type policy struct {
	// rpcTimeout bounds one RPC attempt (0 = no per-attempt deadline;
	// the context still applies).
	rpcTimeout time.Duration
	// retries is the number of re-issues after the first failed
	// attempt of a call.
	retries int
	// backoffBase/backoffMax shape the exponential backoff between
	// retries; the actual sleep is jittered in [d/2, d).
	backoffBase, backoffMax time.Duration
	// hedge, when > 0, re-issues a reduce call or shard read on a second
	// live worker after this delay and takes whichever answers first.
	hedge time.Duration
	// redial is the interval between resurrection sweeps over
	// suspect/dead workers (0 = resurrection disabled: a suspected
	// worker is immediately dead).
	redial time.Duration
	// dialTimeout bounds every dial (startup and redial).
	dialTimeout time.Duration
}

// errClass is the retry classification of one RPC error.
type errClass int

const (
	// classFatal errors abort the call: the worker executed the
	// request and rejected it (bad rule hash, dims mismatch), or the
	// caller's context ended. Retrying elsewhere would fail the same
	// way.
	classFatal errClass = iota
	// classRetryable errors are transport-level: the request may never
	// have reached the worker (conn reset, timeout,
	// transport.ErrShutdown), so the task is safe to re-issue on
	// another worker.
	classRetryable
	// classRuleMissing is a worker verdict with status rule-missing: it
	// is alive but lost (or never received) the broadcast rule, e.g. a
	// fresh process resurrected at an old address. The cure is a
	// re-broadcast to that worker, then retry.
	classRuleMissing
	// classShardMoved is a worker verdict with status shard-moved ("not
	// resident" or "stale shard map"): it is alive but no longer (or not
	// yet) owns the shard the call addressed — the caller raced a
	// rebalance. The cure is a shard-map snapshot refresh on the
	// coordinator, then re-routing, which only the caller can do.
	classShardMoved
)

// classNames name the classes on events and metrics.
var classNames = [...]string{classFatal: "fatal", classRetryable: "retryable",
	classRuleMissing: "rule-missing", classShardMoved: "shard-moved"}

func (k errClass) String() string { return classNames[k] }

// classify sorts an RPC error into the retry taxonomy. The framed
// transport surfaces worker-side verdicts as transport.ServerError
// (the call reached the worker and the worker answered) and transport
// failures as everything else, which makes the split crisp: server
// errors are application verdicts, fatal unless their status code is
// rule-missing or shard-moved; all other errors mean the bytes may
// never have made it.
func classify(err error) errClass {
	if err == nil {
		return classFatal // not meaningful; callers check err first
	}
	var se transport.ServerError
	if errors.As(err, &se) {
		switch se.Status {
		case transport.StatusRuleMissing:
			return classRuleMissing
		case transport.StatusShardMoved:
			return classShardMoved
		}
		return classFatal
	}
	switch {
	case errors.Is(err, errUnknownMethod): // caller bug: no worker could ever serve it
		return classFatal
	case errors.Is(err, ErrShardDown): // every replica is dead or stale
		return classFatal
	case errors.Is(err, ErrBadShardReply), errors.Is(err, errBadReduceReply): // the worker would say the same again
		return classFatal
	}
	switch {
	case errors.Is(err, transport.ErrShutdown),
		errors.Is(err, io.EOF),
		errors.Is(err, io.ErrUnexpectedEOF),
		errors.Is(err, errAttemptTimeout),
		errors.Is(err, errNotConnected):
		return classRetryable
	}
	var ne net.Error
	if errors.As(err, &ne) {
		return classRetryable
	}
	var oe *net.OpError
	if errors.As(err, &oe) {
		return classRetryable
	}
	// Frame decode errors after a half-closed conn, "connection reset
	// by peer" strings from the runtime, etc.: anything that is not a
	// worker verdict is a transport casualty.
	return classRetryable
}

// backoff is a seeded, jittered exponential backoff source. Seeding it
// from the coordinator config keeps retry schedules reproducible in
// tests without synchronizing on the global rand.
type backoff struct {
	mu  sync.Mutex
	rng *rand.Rand
}

func newBackoff(seed int64) *backoff {
	return &backoff{rng: rand.New(rand.NewSource(seed))}
}

// delay returns the jittered sleep before retry attempt n (0-based):
// base<<n capped at max, then drawn uniformly from [d/2, d) so
// synchronized failures don't retry in lockstep.
func (b *backoff) delay(pol *policy, n int) time.Duration {
	d := pol.backoffBase << uint(n)
	if d > pol.backoffMax || d <= 0 {
		d = pol.backoffMax
	}
	b.mu.Lock()
	j := time.Duration(b.rng.Int63n(int64(d/2) + 1))
	b.mu.Unlock()
	return d/2 + j
}

// sleep waits for d or until ctx ends, whichever comes first.
func sleep(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
	case <-t.C:
	}
}
