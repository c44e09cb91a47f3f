// Package mapreduce is an in-process stand-in for a Hadoop cluster, the
// substrate the MR-GPMRS baseline (internal/gpmrs) runs its two jobs on.
// It models the pieces of MapReduce that baseline depends on:
//
//   - map tasks over input splits, executed on a bounded pool of
//     simulated worker slots;
//   - per-map-task combiners (local skyline candidates before the
//     shuffle);
//   - a hash/custom-partitioned shuffle with byte accounting, so
//     experiments can report intermediate data volume;
//   - reduce tasks with a strict map->reduce barrier, as in Hadoop;
//   - a read-only distributed cache broadcast to every task
//     (Algorithm 3 loads pivots, the sample skyline and PGmap this
//     way);
//   - straggler injection (per-worker slowdown factors) and fault
//     injection with bounded retry, to reproduce the "data straggler"
//     conditions of §3.3.
//
// The engine is deterministic for a fixed input and job definition:
// map outputs are merged in task order, keys in first-seen order, so
// runs are reproducible even though tasks execute concurrently.
package mapreduce

import (
	"context"
	"fmt"
	"sync"
	"time"

	"zskyline/internal/metrics"
)

// TaskKind distinguishes map from reduce tasks in stats.
type TaskKind int

// Task kinds.
const (
	MapTask TaskKind = iota
	ReduceTask
)

// String names the kind.
func (k TaskKind) String() string {
	if k == MapTask {
		return "map"
	}
	return "reduce"
}

// ClusterConfig describes the simulated cluster.
type ClusterConfig struct {
	// Workers is the number of concurrent task slots (think: total
	// cores across the cluster). Zero or negative selects 1.
	Workers int
	// Slowdown, if non-nil, returns a wall-clock stretch factor for a
	// worker slot (>= 1). A factor f makes every task on that slot take
	// f times as long, modelling the faulty-disk / slow-node stragglers
	// of §3.3. Nil means no stretching.
	Slowdown func(worker int) float64
	// FailTask, if non-nil, is consulted before each task attempt and
	// may return an error to simulate a task failure; the engine
	// retries on another attempt up to MaxAttempts.
	FailTask func(job string, kind TaskKind, task, attempt int) error
	// MaxAttempts bounds task retries. Zero selects 3, like Hadoop's
	// default of 4 attempts total being overkill for a simulation.
	MaxAttempts int
	// SpeculativeAfter, when positive, enables speculative execution:
	// if a task attempt has not finished after this duration, a
	// duplicate attempt is launched on another worker slot and the
	// first completion wins — Hadoop's classic straggler mitigation.
	// Task functions must be side-effect free (ours are).
	SpeculativeAfter time.Duration
}

// Cluster is a reusable simulated cluster.
type Cluster struct {
	cfg   ClusterConfig
	slots chan int
}

// NewCluster builds a cluster with the given config.
func NewCluster(cfg ClusterConfig) *Cluster {
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 3
	}
	c := &Cluster{cfg: cfg, slots: make(chan int, cfg.Workers)}
	for i := 0; i < cfg.Workers; i++ {
		c.slots <- i
	}
	return c
}

// Workers returns the number of task slots.
func (c *Cluster) Workers() int { return c.cfg.Workers }

// TaskContext is handed to every map/combine/reduce invocation.
type TaskContext struct {
	Job    string
	Kind   TaskKind
	Task   int
	Worker int
	// Cache is the job's read-only distributed cache.
	Cache map[string]any
	// Tally receives the task's metric increments.
	Tally *metrics.Tally
}

// TaskStat records one completed task for the experiment reports.
type TaskStat struct {
	Kind          TaskKind
	Task          int
	Worker        int
	Attempts      int
	Duration      time.Duration
	InputRecords  int
	OutputRecords int
	// Speculated is true when a duplicate attempt was raced against a
	// straggling one (the stat describes the winner).
	Speculated bool
}

// JobStats aggregates a finished job.
type JobStats struct {
	Name          string
	MapStats      []TaskStat
	ReduceStats   []TaskStat
	ShuffleBytes  int64
	MapOutRecords int64
	Wall          time.Duration
}

// MapDurations returns per-map-task durations in task order.
func (s *JobStats) MapDurations() []time.Duration {
	out := make([]time.Duration, len(s.MapStats))
	for i, st := range s.MapStats {
		out[i] = st.Duration
	}
	return out
}

// ReduceInputBalance summarizes reduce input sizes, the straggler
// signal the experiments report.
func (s *JobStats) ReduceInputBalance() metrics.Balance {
	loads := make([]int, len(s.ReduceStats))
	for i, st := range s.ReduceStats {
		loads[i] = st.InputRecords
	}
	return metrics.NewBalance(loads)
}

// Job defines one MapReduce job over records of type I, intermediate
// key/value pairs (K, V) and outputs O.
type Job[I any, K comparable, V any, O any] struct {
	Name string
	// Map processes one input record, emitting zero or more pairs.
	Map func(ctx *TaskContext, rec I, emit func(K, V)) error
	// Combine, if non-nil, folds one map task's values for a key before
	// the shuffle — Hadoop's combiner.
	Combine func(ctx *TaskContext, key K, vals []V) []V
	// Reduce folds all values of one key into outputs.
	Reduce func(ctx *TaskContext, key K, vals []V, emit func(O)) error
	// Partition routes a key to one of n reducers. Nil selects a
	// deterministic hash of the key's formatted form.
	Partition func(key K, n int) int
	// Reducers is the reduce-task count; zero selects the cluster's
	// worker count.
	Reducers int
	// SizeOf estimates the wire size of one pair for shuffle-byte
	// accounting. Nil selects a flat 16 bytes per record.
	SizeOf func(key K, val V) int
	// Cache is broadcast read-only to every task.
	Cache map[string]any
	// Tally receives metric increments from all tasks; may be nil.
	Tally *metrics.Tally
}

// defaultPartition hashes the key's printed form — adequate for the
// small key domains (group IDs) this library shuffles.
func defaultPartition[K comparable](key K, n int) int {
	s := fmt.Sprint(key)
	h := uint64(1469598103934665603)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return int(h % uint64(n))
}

// keyedValues is one map task's combined output for one reducer.
type keyedValues[K comparable, V any] struct {
	keys []K // first-seen order
	vals map[K][]V
}

func newKeyed[K comparable, V any]() *keyedValues[K, V] {
	return &keyedValues[K, V]{vals: make(map[K][]V)}
}

func (kv *keyedValues[K, V]) add(k K, v V) {
	if _, ok := kv.vals[k]; !ok {
		kv.keys = append(kv.keys, k)
	}
	kv.vals[k] = append(kv.vals[k], v)
}

// Run executes the job on the cluster: one map task per input split,
// then job.Reducers reduce tasks after a full barrier. It returns the
// reduce outputs in deterministic (reducer, key-first-seen) order.
func Run[I any, K comparable, V any, O any](
	ctx context.Context, c *Cluster, job Job[I, K, V, O], splits [][]I,
) ([]O, *JobStats, error) {
	start := time.Now()
	stats := &JobStats{Name: job.Name}
	nRed := job.Reducers
	if nRed <= 0 {
		nRed = c.cfg.Workers
	}
	part := job.Partition
	if part == nil {
		part = defaultPartition[K]
	}
	sizeOf := job.SizeOf
	if sizeOf == nil {
		sizeOf = func(K, V) int { return 16 }
	}

	// ---- Map phase ----
	// buckets[task][reducer] holds the task's combined shuffle output.
	buckets := make([][]*keyedValues[K, V], len(splits))
	stats.MapStats = make([]TaskStat, len(splits))
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	setErr := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}
	for t := range splits {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			stat, out, err := runMapTask(ctx, c, &job, t, splits[t], nRed, part)
			if err != nil {
				setErr(fmt.Errorf("mapreduce: job %q map task %d: %w", job.Name, t, err))
				return
			}
			buckets[t] = out
			stats.MapStats[t] = stat
		}(t)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, stats, firstErr
	}
	for _, st := range stats.MapStats {
		stats.MapOutRecords += int64(st.OutputRecords)
	}
	// Shuffle byte accounting.
	var shuffle int64
	for _, taskOut := range buckets {
		for _, kv := range taskOut {
			if kv == nil {
				continue
			}
			for _, k := range kv.keys {
				for _, v := range kv.vals[k] {
					shuffle += int64(sizeOf(k, v))
				}
			}
		}
	}
	stats.ShuffleBytes = shuffle
	job.Tally.AddBytesShuffled(shuffle)

	// ---- Reduce phase (after the barrier) ----
	type redResult struct {
		out  []O
		stat TaskStat
	}
	results := make([]redResult, nRed)
	for r := 0; r < nRed; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			// Deterministic merge: task order, then first-seen key order.
			merged := newKeyed[K, V]()
			for _, taskOut := range buckets {
				kv := taskOut[r]
				if kv == nil {
					continue
				}
				for _, k := range kv.keys {
					for _, v := range kv.vals[k] {
						merged.add(k, v)
					}
				}
			}
			stat, out, err := runReduceTask(ctx, c, &job, r, merged)
			if err != nil {
				setErr(fmt.Errorf("mapreduce: job %q reduce task %d: %w", job.Name, r, err))
				return
			}
			results[r] = redResult{out: out, stat: stat}
		}(r)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, stats, firstErr
	}
	var outs []O
	for r := 0; r < nRed; r++ {
		outs = append(outs, results[r].out...)
		stats.ReduceStats = append(stats.ReduceStats, results[r].stat)
	}
	stats.Wall = time.Since(start)
	return outs, stats, nil
}

// attemptResult carries one completed attempt through the speculation
// race.
type attemptResult[T any] struct {
	stat TaskStat
	out  T
	err  error
}

// speculate runs attempt once, and if it is still unfinished after the
// cluster's SpeculativeAfter delay, races a duplicate against it; the
// first completion wins. With speculation disabled it is a plain call.
func speculate[T any](c *Cluster, attempt func() (TaskStat, T, error)) (TaskStat, T, error) {
	if c.cfg.SpeculativeAfter <= 0 {
		return attempt()
	}
	ch := make(chan attemptResult[T], 2)
	launch := func() {
		go func() {
			stat, out, err := attempt()
			ch <- attemptResult[T]{stat: stat, out: out, err: err}
		}()
	}
	launch()
	timer := time.NewTimer(c.cfg.SpeculativeAfter)
	defer timer.Stop()
	launched := 1
	var firstErr error
	got := 0
	for {
		select {
		case r := <-ch:
			got++
			if r.err == nil {
				r.stat.Speculated = launched > 1
				return r.stat, r.out, nil
			}
			if firstErr == nil {
				firstErr = r.err
			}
			if got == launched {
				var zero T
				return TaskStat{}, zero, firstErr
			}
		case <-timer.C:
			if launched == 1 {
				launch()
				launched = 2
			}
		}
	}
}

// acquire takes a worker slot, respecting cancellation.
func (c *Cluster) acquire(ctx context.Context) (int, error) {
	select {
	case w := <-c.slots:
		return w, nil
	case <-ctx.Done():
		return 0, ctx.Err()
	}
}

func (c *Cluster) release(w int) { c.slots <- w }

// stretch models a straggling worker by sleeping the extra fraction of
// the task's real duration.
func (c *Cluster) stretch(worker int, elapsed time.Duration) time.Duration {
	if c.cfg.Slowdown == nil {
		return elapsed
	}
	f := c.cfg.Slowdown(worker)
	if f <= 1 {
		return elapsed
	}
	extra := time.Duration(float64(elapsed) * (f - 1))
	time.Sleep(extra)
	return elapsed + extra
}

func runMapTask[I any, K comparable, V any, O any](
	ctx context.Context, c *Cluster, job *Job[I, K, V, O], task int, split []I,
	nRed int, part func(K, int) int,
) (TaskStat, []*keyedValues[K, V], error) {
	var lastErr error
	for attempt := 1; attempt <= c.cfg.MaxAttempts; attempt++ {
		attempt := attempt
		stat, out, err := speculate(c, func() (TaskStat, []*keyedValues[K, V], error) {
			worker, err := c.acquire(ctx)
			if err != nil {
				return TaskStat{}, nil, err
			}
			defer c.release(worker)
			return mapAttempt(c, job, task, worker, attempt, split, nRed, part)
		})
		if err == nil {
			return stat, out, nil
		}
		lastErr = err
	}
	return TaskStat{}, nil, fmt.Errorf("failed after %d attempts: %w", c.cfg.MaxAttempts, lastErr)
}

func mapAttempt[I any, K comparable, V any, O any](
	c *Cluster, job *Job[I, K, V, O], task, worker, attempt int, split []I,
	nRed int, part func(K, int) int,
) (TaskStat, []*keyedValues[K, V], error) {
	tctx := &TaskContext{Job: job.Name, Kind: MapTask, Task: task, Worker: worker,
		Cache: job.Cache, Tally: job.Tally}
	if c.cfg.FailTask != nil {
		if err := c.cfg.FailTask(job.Name, MapTask, task, attempt); err != nil {
			return TaskStat{}, nil, err
		}
	}
	begin := time.Now()
	local := newKeyed[K, V]()
	emit := func(k K, v V) { local.add(k, v) }
	for _, rec := range split {
		if err := job.Map(tctx, rec, emit); err != nil {
			return TaskStat{}, nil, err
		}
	}
	// Combiner, per key, before the shuffle.
	outRecords := 0
	out := make([]*keyedValues[K, V], nRed)
	for _, k := range local.keys {
		vals := local.vals[k]
		if job.Combine != nil {
			vals = job.Combine(tctx, k, vals)
		}
		r := part(k, nRed)
		if r < 0 || r >= nRed {
			return TaskStat{}, nil, fmt.Errorf("partitioner returned %d for %d reducers", r, nRed)
		}
		if out[r] == nil {
			out[r] = newKeyed[K, V]()
		}
		for _, v := range vals {
			out[r].add(k, v)
			outRecords++
		}
	}
	job.Tally.AddRecordsEmitted(int64(outRecords))
	dur := c.stretch(worker, time.Since(begin))
	return TaskStat{Kind: MapTask, Task: task, Worker: worker, Attempts: attempt,
		Duration: dur, InputRecords: len(split), OutputRecords: outRecords}, out, nil
}

func runReduceTask[I any, K comparable, V any, O any](
	ctx context.Context, c *Cluster, job *Job[I, K, V, O], task int, merged *keyedValues[K, V],
) (TaskStat, []O, error) {
	var lastErr error
	for attempt := 1; attempt <= c.cfg.MaxAttempts; attempt++ {
		attempt := attempt
		stat, out, err := speculate(c, func() (TaskStat, []O, error) {
			worker, err := c.acquire(ctx)
			if err != nil {
				return TaskStat{}, nil, err
			}
			defer c.release(worker)
			return reduceAttempt(c, job, task, worker, attempt, merged)
		})
		if err == nil {
			return stat, out, nil
		}
		lastErr = err
	}
	return TaskStat{}, nil, fmt.Errorf("failed after %d attempts: %w", c.cfg.MaxAttempts, lastErr)
}

func reduceAttempt[I any, K comparable, V any, O any](
	c *Cluster, job *Job[I, K, V, O], task, worker, attempt int, merged *keyedValues[K, V],
) (TaskStat, []O, error) {
	tctx := &TaskContext{Job: job.Name, Kind: ReduceTask, Task: task, Worker: worker,
		Cache: job.Cache, Tally: job.Tally}
	if c.cfg.FailTask != nil {
		if err := c.cfg.FailTask(job.Name, ReduceTask, task, attempt); err != nil {
			return TaskStat{}, nil, err
		}
	}
	begin := time.Now()
	var out []O
	emit := func(o O) { out = append(out, o) }
	inRecords := 0
	for _, k := range merged.keys {
		vals := merged.vals[k]
		inRecords += len(vals)
		if err := job.Reduce(tctx, k, vals, emit); err != nil {
			return TaskStat{}, nil, err
		}
	}
	dur := c.stretch(worker, time.Since(begin))
	return TaskStat{Kind: ReduceTask, Task: task, Worker: worker, Attempts: attempt,
		Duration: dur, InputRecords: inRecords, OutputRecords: len(out)}, out, nil
}

// SplitSlice cuts input into n near-equal contiguous splits (at least
// one record per split; fewer splits when input is small).
func SplitSlice[I any](in []I, n int) [][]I {
	if n < 1 {
		n = 1
	}
	if n > len(in) {
		n = len(in)
	}
	if n == 0 {
		return nil
	}
	out := make([][]I, 0, n)
	for i := 0; i < n; i++ {
		lo := i * len(in) / n
		hi := (i + 1) * len(in) / n
		if lo < hi {
			out = append(out, in[lo:hi:hi])
		}
	}
	return out
}
