package plan

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"zskyline/internal/metrics"
)

// Executor runs the pipeline's reduce tasks on some substrate; the map
// tasks run on its in-process pool, next to the input. Implementations
// decide placement, transport, and fault handling; the phase semantics
// stay in plan. Bulk data crosses the interface as point.Blocks —
// contiguous batches that substrates can ship as single payloads.
//
// Error contract: the driver (Run, RunFile, MergePhase) returns
// executor errors unwrapped, so typed sentinels an implementation
// exposes stay matchable with errors.Is at the API boundary — the
// dist executor's ErrClusterDown is the worked example. Transient
// substrate faults (lost connections, timed-out calls, worker
// restarts) are the executor's to absorb: retry, failover, and
// re-broadcast happen below this interface, and an error returned
// from a Run* method means the phase is unrecoverable, not merely
// that a task needed a second attempt. Every task is a deterministic
// function of the Rule and its input, so executors may freely re-run
// or duplicate tasks without changing the answer. Implementations
// must also honor ctx cancellation and return ctx.Err() promptly.
type Executor interface {
	// Broadcast installs the rule wherever tasks will run (the paper's
	// distributed-cache step). In-process executors may no-op.
	Broadcast(ctx context.Context, r *Rule) error
	// RunReduces executes r.LocalSkylineGroup over each group, preserving
	// group order and ids.
	RunReduces(ctx context.Context, r *Rule, groups []Group, tally *metrics.Tally) ([]Group, error)
	// pool is the in-process pool the map tasks and phase 3 run on: the
	// driver reads the input where it lies and the candidates land
	// there. An executor gets it by embedding *LocalExec.
	pool() *LocalExec
}

// LocalExec runs tasks on a bounded pool of goroutines in-process —
// the shared-memory substrate.
type LocalExec struct {
	workers int
}

// NewLocalExec builds a pool executor; workers <= 0 selects GOMAXPROCS.
func NewLocalExec(workers int) *LocalExec {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &LocalExec{workers: workers}
}

// Broadcast is a no-op in-process.
func (ex *LocalExec) Broadcast(ctx context.Context, _ *Rule) error { return ctx.Err() }

// FanOut fans f over n indices on at most ex.workers goroutines, each
// taking the next index until none is left. No index is taken once ctx
// is done, and a panic inside f is recovered into the returned error
// instead of killing the process. A task that watches ctx itself may
// stop early without a word, so a context that is done when the last
// task returns fails the whole call.
func (ex *LocalExec) FanOut(ctx context.Context, n int, f func(i int)) error {
	var (
		wg       sync.WaitGroup
		next     atomic.Int64
		mu       sync.Mutex
		firstErr error
	)
	task := func(i int) {
		defer func() {
			if p := recover(); p != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = fmt.Errorf("plan: task %d panicked: %v", i, p)
				}
				mu.Unlock()
			}
		}()
		f(i)
	}
	worker := func() {
		defer wg.Done()
		for ctx.Err() == nil {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			task(i)
		}
	}
	for w := min(ex.workers, n); w > 0; w-- {
		wg.Add(1)
		go worker()
	}
	wg.Wait()
	if firstErr == nil {
		firstErr = ctx.Err()
	}
	return firstErr
}

// splitChunks is how many probe ranges a probeMerge cuts per worker
// and side: the ranges cost unequal time, and a few per worker even
// that out.
const splitChunks = 2

// RunReduces implements Executor.
func (ex *LocalExec) RunReduces(ctx context.Context, r *Rule, groups []Group, tally *metrics.Tally) ([]Group, error) {
	outs := make([]Group, len(groups))
	err := ex.FanOut(ctx, len(groups), func(i int) {
		outs[i] = r.LocalSkylineGroup(groups[i], tally)
	})
	return outs, err
}

func (ex *LocalExec) pool() *LocalExec { return ex }
