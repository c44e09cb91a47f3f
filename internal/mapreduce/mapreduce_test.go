package mapreduce

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"zskyline/internal/metrics"
)

// wordCount is the canonical smoke test.
func wordCountJob(tally *metrics.Tally) Job[string, string, int, string] {
	return Job[string, string, int, string]{
		Name: "wordcount",
		Map: func(_ *TaskContext, line string, emit func(string, int)) error {
			for _, w := range strings.Fields(line) {
				emit(w, 1)
			}
			return nil
		},
		Combine: func(_ *TaskContext, _ string, vals []int) []int {
			sum := 0
			for _, v := range vals {
				sum += v
			}
			return []int{sum}
		},
		Reduce: func(_ *TaskContext, key string, vals []int, emit func(string)) error {
			sum := 0
			for _, v := range vals {
				sum += v
			}
			emit(fmt.Sprintf("%s=%d", key, sum))
			return nil
		},
		Reducers: 3,
		Tally:    tally,
	}
}

func TestWordCount(t *testing.T) {
	c := NewCluster(ClusterConfig{Workers: 4})
	lines := []string{"a b a", "b c", "a c c c"}
	out, stats, err := Run(context.Background(), c, wordCountJob(nil), SplitSlice(lines, 2))
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	for _, o := range out {
		got[o] = true
	}
	for _, want := range []string{"a=3", "b=2", "c=4"} {
		if !got[want] {
			t.Errorf("missing %q in %v", want, out)
		}
	}
	if len(stats.MapStats) != 2 || len(stats.ReduceStats) != 3 {
		t.Errorf("stats: %d map, %d reduce tasks", len(stats.MapStats), len(stats.ReduceStats))
	}
	if stats.ShuffleBytes == 0 {
		t.Error("no shuffle bytes accounted")
	}
}

func TestDeterministicOutputOrder(t *testing.T) {
	c := NewCluster(ClusterConfig{Workers: 8})
	var lines []string
	for i := 0; i < 50; i++ {
		lines = append(lines, fmt.Sprintf("w%d w%d w%d", i%7, i%11, i%13))
	}
	var first []string
	for trial := 0; trial < 5; trial++ {
		out, _, err := Run(context.Background(), c, wordCountJob(nil), SplitSlice(lines, 8))
		if err != nil {
			t.Fatal(err)
		}
		if trial == 0 {
			first = out
			continue
		}
		if len(out) != len(first) {
			t.Fatalf("trial %d: %d outputs vs %d", trial, len(out), len(first))
		}
		for i := range out {
			if out[i] != first[i] {
				t.Fatalf("nondeterministic output at %d: %q vs %q", i, out[i], first[i])
			}
		}
	}
}

func TestCombinerReducesShuffleVolume(t *testing.T) {
	c := NewCluster(ClusterConfig{Workers: 2})
	lines := make([]string, 100)
	for i := range lines {
		lines[i] = "x x x x x x x x"
	}
	with := wordCountJob(nil)
	without := wordCountJob(nil)
	without.Combine = nil
	_, sWith, err := Run(context.Background(), c, with, SplitSlice(lines, 4))
	if err != nil {
		t.Fatal(err)
	}
	_, sWithout, err := Run(context.Background(), c, without, SplitSlice(lines, 4))
	if err != nil {
		t.Fatal(err)
	}
	if sWith.ShuffleBytes >= sWithout.ShuffleBytes {
		t.Errorf("combiner did not reduce shuffle: %d vs %d", sWith.ShuffleBytes, sWithout.ShuffleBytes)
	}
}

func TestCustomPartitioner(t *testing.T) {
	c := NewCluster(ClusterConfig{Workers: 2})
	job := Job[int, int, int, string]{
		Name: "routed",
		Map: func(_ *TaskContext, rec int, emit func(int, int)) error {
			emit(rec%4, rec)
			return nil
		},
		Reduce: func(ctx *TaskContext, key int, vals []int, emit func(string)) error {
			emit(fmt.Sprintf("r%d-k%d-n%d", ctx.Task, key, len(vals)))
			return nil
		},
		Partition: func(key, n int) int { return key % n },
		Reducers:  4,
	}
	in := make([]int, 40)
	for i := range in {
		in[i] = i
	}
	out, _, err := Run(context.Background(), c, job, SplitSlice(in, 4))
	if err != nil {
		t.Fatal(err)
	}
	// Key k must land on reducer k%4 = k.
	for _, o := range out {
		var r, k, n int
		if _, err := fmt.Sscanf(o, "r%d-k%d-n%d", &r, &k, &n); err != nil {
			t.Fatal(err)
		}
		if r != k || n != 10 {
			t.Errorf("bad routing: %s", o)
		}
	}
}

func TestBadPartitionerFails(t *testing.T) {
	c := NewCluster(ClusterConfig{Workers: 1})
	job := Job[int, int, int, int]{
		Name:      "bad",
		Map:       func(_ *TaskContext, rec int, emit func(int, int)) error { emit(rec, rec); return nil },
		Reduce:    func(_ *TaskContext, _ int, _ []int, _ func(int)) error { return nil },
		Partition: func(key, n int) int { return -1 },
	}
	_, _, err := Run(context.Background(), c, job, SplitSlice([]int{1}, 1))
	if err == nil {
		t.Fatal("out-of-range partitioner should fail the job")
	}
}

func TestMapErrorPropagates(t *testing.T) {
	c := NewCluster(ClusterConfig{Workers: 2, MaxAttempts: 1})
	boom := errors.New("boom")
	job := Job[int, int, int, int]{
		Name:   "maperr",
		Map:    func(_ *TaskContext, rec int, _ func(int, int)) error { return boom },
		Reduce: func(_ *TaskContext, _ int, _ []int, _ func(int)) error { return nil },
	}
	_, _, err := Run(context.Background(), c, job, SplitSlice([]int{1, 2}, 2))
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
}

func TestFaultInjectionRetries(t *testing.T) {
	var calls atomic.Int32
	c := NewCluster(ClusterConfig{
		Workers:     2,
		MaxAttempts: 3,
		FailTask: func(job string, kind TaskKind, task, attempt int) error {
			if kind == MapTask && task == 0 && attempt < 3 {
				calls.Add(1)
				return fmt.Errorf("injected fault attempt %d", attempt)
			}
			return nil
		},
	})
	out, stats, err := Run(context.Background(), c, wordCountJob(nil), SplitSlice([]string{"a", "b"}, 2))
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 2 {
		t.Errorf("injected %d faults, want 2", calls.Load())
	}
	if stats.MapStats[0].Attempts != 3 {
		t.Errorf("task 0 attempts = %d, want 3", stats.MapStats[0].Attempts)
	}
	if len(out) != 2 {
		t.Errorf("out = %v", out)
	}
}

func TestFaultExhaustionFailsJob(t *testing.T) {
	c := NewCluster(ClusterConfig{
		Workers:     1,
		MaxAttempts: 2,
		FailTask: func(_ string, kind TaskKind, _, _ int) error {
			if kind == ReduceTask {
				return errors.New("disk on fire")
			}
			return nil
		},
	})
	_, _, err := Run(context.Background(), c, wordCountJob(nil), SplitSlice([]string{"a"}, 1))
	if err == nil || !strings.Contains(err.Error(), "after 2 attempts") {
		t.Fatalf("err = %v", err)
	}
}

func TestStragglerInjectionStretchesTask(t *testing.T) {
	slow := NewCluster(ClusterConfig{
		Workers:  1,
		Slowdown: func(worker int) float64 { return 50 },
	})
	job := Job[int, int, int, int]{
		Name: "sleepy",
		Map: func(_ *TaskContext, rec int, emit func(int, int)) error {
			time.Sleep(2 * time.Millisecond)
			emit(0, rec)
			return nil
		},
		Reduce: func(_ *TaskContext, _ int, vals []int, emit func(int)) error {
			emit(len(vals))
			return nil
		},
		Reducers: 1,
	}
	_, stats, err := Run(context.Background(), slow, job, SplitSlice([]int{1}, 1))
	if err != nil {
		t.Fatal(err)
	}
	if stats.MapStats[0].Duration < 50*time.Millisecond {
		t.Errorf("straggler stretch not applied: %v", stats.MapStats[0].Duration)
	}
}

func TestContextCancellation(t *testing.T) {
	c := NewCluster(ClusterConfig{Workers: 1})
	ctx, cancel := context.WithCancel(context.Background())
	job := Job[int, int, int, int]{
		Name: "cancel",
		Map: func(_ *TaskContext, rec int, emit func(int, int)) error {
			time.Sleep(5 * time.Millisecond)
			emit(rec, rec)
			return nil
		},
		Reduce: func(_ *TaskContext, _ int, _ []int, _ func(int)) error { return nil },
	}
	go func() {
		time.Sleep(1 * time.Millisecond)
		cancel()
	}()
	// Many splits on one worker: later acquisitions observe cancellation.
	in := make([]int, 64)
	_, _, err := Run(ctx, c, job, SplitSlice(in, 64))
	if err == nil {
		t.Fatal("cancelled run should fail")
	}
}

func TestDistributedCacheVisible(t *testing.T) {
	c := NewCluster(ClusterConfig{Workers: 2})
	job := Job[int, int, int, string]{
		Name: "cache",
		Map: func(ctx *TaskContext, rec int, emit func(int, int)) error {
			bonus := ctx.Cache["bonus"].(int)
			emit(0, rec+bonus)
			return nil
		},
		Reduce: func(ctx *TaskContext, _ int, vals []int, emit func(string)) error {
			if ctx.Cache["bonus"].(int) != 100 {
				return errors.New("cache missing in reducer")
			}
			sum := 0
			for _, v := range vals {
				sum += v
			}
			emit(fmt.Sprint(sum))
			return nil
		},
		Reducers: 1,
		Cache:    map[string]any{"bonus": 100},
	}
	out, _, err := Run(context.Background(), c, job, SplitSlice([]int{1, 2, 3}, 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0] != "306" {
		t.Errorf("out = %v, want [306]", out)
	}
}

func TestTallyAccounting(t *testing.T) {
	tal := &metrics.Tally{}
	c := NewCluster(ClusterConfig{Workers: 2})
	_, stats, err := Run(context.Background(), c, wordCountJob(tal), SplitSlice([]string{"a b", "c d"}, 2))
	if err != nil {
		t.Fatal(err)
	}
	s := tal.Snapshot()
	if s.BytesShuffled != stats.ShuffleBytes {
		t.Errorf("tally bytes %d != stats %d", s.BytesShuffled, stats.ShuffleBytes)
	}
	if s.RecordsEmitted == 0 {
		t.Error("no emitted records tallied")
	}
}

func TestSplitSlice(t *testing.T) {
	in := []int{1, 2, 3, 4, 5, 6, 7}
	cases := []struct{ n, wantSplits int }{{1, 1}, {2, 2}, {3, 3}, {7, 7}, {10, 7}, {0, 1}}
	for _, c := range cases {
		sp := SplitSlice(in, c.n)
		if len(sp) != c.wantSplits {
			t.Errorf("SplitSlice(n=%d) gave %d splits, want %d", c.n, len(sp), c.wantSplits)
		}
		total := 0
		for _, s := range sp {
			total += len(s)
		}
		if total != len(in) {
			t.Errorf("SplitSlice(n=%d) lost records: %d", c.n, total)
		}
	}
	if got := SplitSlice([]int{}, 3); len(got) != 0 {
		t.Errorf("empty input: %v", got)
	}
}

func TestReduceInputBalance(t *testing.T) {
	s := &JobStats{ReduceStats: []TaskStat{{InputRecords: 10}, {InputRecords: 30}}}
	b := s.ReduceInputBalance()
	if b.Max != 30 || b.Mean != 20 {
		t.Errorf("balance = %+v", b)
	}
	if len((&JobStats{MapStats: []TaskStat{{Duration: time.Second}}}).MapDurations()) != 1 {
		t.Error("MapDurations wrong")
	}
}

func TestTaskKindString(t *testing.T) {
	if MapTask.String() != "map" || ReduceTask.String() != "reduce" {
		t.Error("kind names wrong")
	}
}

func TestManyTasksFewWorkers(t *testing.T) {
	c := NewCluster(ClusterConfig{Workers: 3})
	in := make([]int, 1000)
	for i := range in {
		in[i] = i
	}
	job := Job[int, int, int64, int64]{
		Name: "sum",
		Map: func(_ *TaskContext, rec int, emit func(int, int64)) error {
			emit(rec%5, int64(rec))
			return nil
		},
		Reduce: func(_ *TaskContext, _ int, vals []int64, emit func(int64)) error {
			var sum int64
			for _, v := range vals {
				sum += v
			}
			emit(sum)
			return nil
		},
		Reducers: 5,
	}
	out, stats, err := Run(context.Background(), c, job, SplitSlice(in, 100))
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, v := range out {
		total += v
	}
	if total != 999*1000/2 {
		t.Errorf("sum = %d", total)
	}
	// Worker IDs stay within the pool.
	for _, st := range append(stats.MapStats, stats.ReduceStats...) {
		if st.Worker < 0 || st.Worker >= 3 {
			t.Errorf("worker %d out of pool", st.Worker)
		}
	}
}

// Speculative execution: with one pathologically slow worker, a
// speculative duplicate on a healthy worker should win and cut wall
// time well below the straggler's stretched duration.
func TestSpeculativeExecutionBeatsStraggler(t *testing.T) {
	mk := func(specAfter time.Duration) *JobStats {
		c := NewCluster(ClusterConfig{
			Workers: 2,
			// Worker 0 stretches everything 100x.
			Slowdown: func(worker int) float64 {
				if worker == 0 {
					return 100
				}
				return 1
			},
			SpeculativeAfter: specAfter,
		})
		job := Job[int, int, int, int]{
			Name: "spec",
			Map: func(_ *TaskContext, rec int, emit func(int, int)) error {
				time.Sleep(3 * time.Millisecond)
				emit(0, rec)
				return nil
			},
			Reduce: func(_ *TaskContext, _ int, vals []int, emit func(int)) error {
				emit(len(vals))
				return nil
			},
			Reducers: 1,
		}
		out, stats, err := Run(context.Background(), c, job, SplitSlice([]int{1}, 1))
		if err != nil {
			t.Fatal(err)
		}
		if len(out) != 1 || out[0] != 1 {
			t.Fatalf("out = %v", out)
		}
		return stats
	}
	slow := mk(0)                     // no speculation: straggler decides
	fast := mk(10 * time.Millisecond) // duplicate wins
	if fast.Wall >= slow.Wall {
		t.Errorf("speculation did not help: %v vs %v", fast.Wall, slow.Wall)
	}
	// The winning map attempt should be marked speculated when the
	// straggler held the first slot.
	anySpec := false
	for _, st := range append(fast.MapStats, fast.ReduceStats...) {
		if st.Speculated {
			anySpec = true
		}
	}
	if !anySpec {
		t.Error("no task recorded as speculated")
	}
}

// Speculation must not break determinism or correctness of results.
func TestSpeculativeDeterministicResults(t *testing.T) {
	c := NewCluster(ClusterConfig{Workers: 4, SpeculativeAfter: time.Microsecond})
	var lines []string
	for i := 0; i < 30; i++ {
		lines = append(lines, fmt.Sprintf("w%d w%d", i%5, i%3))
	}
	var first []string
	for trial := 0; trial < 4; trial++ {
		out, _, err := Run(context.Background(), c, wordCountJob(nil), SplitSlice(lines, 6))
		if err != nil {
			t.Fatal(err)
		}
		if trial == 0 {
			first = out
			continue
		}
		for i := range out {
			if out[i] != first[i] {
				t.Fatalf("speculation broke determinism at %d", i)
			}
		}
	}
}
