// Command bench is the repository's benchmark: four workloads driven
// through the public entry points of the executors, the cluster and
// the serving tier, from one process. An untraced run prints the
// end-to-end metrics; a traced run (-trace 1) replays the same work
// layer by layer under the benchmark's own span recorder and prints
// the per-layer metrics. See README.md for the workloads, the metric
// roles and how the numbers interact.
//
//	go run ./bench -workload anti-d8 -seed 42 -seconds 20 -trace 0
//	go run ./bench -all            # every workload, untraced then traced
//	go run ./bench -aa             # A/A: two sets of ten seeds per workload
//	go run ./bench -spec           # print BENCHMARK.json
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The command exits non-zero
// when any operation failed or returned a wrong answer.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"
)

// runSeconds is how long one run measures; BENCHMARK.json freezes it.
const runSeconds = 20

// setupReps is how many times an untraced run sets up; setup_s is the
// median, and only the last set-up is measured against.
const setupReps = 3

// runConfig is one invocation's arguments.
type runConfig struct {
	seed    int64
	seconds float64
	trace   bool
	// scale shrinks the frozen input sizes; only the smoke test sets it
	// below 1.
	scale  float64
	outDir string    // where a traced run writes its span file
	log    io.Writer // the human-readable report
}

func (c runConfig) scaled(n int) int { return max(int(float64(n)*c.scale), 1) }

// workload is one set of inputs the benchmark runs.
type workload struct {
	name, why string
	run       func(ctx context.Context, cfg runConfig) (*result, error)
}

var workloads = []workload{
	{"anti-d8", "anti-correlated d=8, a quarter of the rows on the skyline: dominance tests, Z-search and Z-merge do the work; query=parallel.Skyline net=dist Coordinator.Skyline aux=core Engine.Skyline", runAntiD8},
	{"corr-d8", "correlated d=8, skyline of a few rows: ingest, sampling, Z-encode and the SZB map filter are the whole cost and the dominance kernels idle; same three executors as anti-d8", runCorrD8},
	{"serve-churn", "open-loop HTTP mix on server.Service: query=POST query (cache hits and misses) net=GET skyline aux=POST ingest of 16 rows, which bumps the version and purges the result cache", runServeChurn},
	{"cluster-mixed", "dist.Cluster with resident shards over loopback TCP: query=SkylineRange one shard wide net=full Skyline aux=InsertBlock of 1024 rows; routing, wire codecs and per-query shard recompute", runClusterMixed},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// opLog collects what the three operation roles of a workload did.
type opLog struct {
	query, net, aux series
	wire            series // bytes moved, one entry per operation that reports them
	allocBytes      uint64
	mallocs         float64 // heap objects the last timed operation allocated
	ops             int
	attempted       int
	failed          int
}

// timed runs op once: a collection first so one repetition does not pay
// for another's garbage, then the wall time and the bytes allocated.
func (l *opLog) timed(s *series, op func() error) error {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	err := op()
	d := time.Since(t0)
	runtime.ReadMemStats(&after)
	l.attempted++
	if err != nil {
		l.failed++
		return err
	}
	s.add(d)
	l.ops++
	l.allocBytes += after.TotalAlloc - before.TotalAlloc
	l.mallocs = float64(after.Mallocs - before.Mallocs)
	return nil
}

// check counts a wrong answer exactly like an operation that errored.
func (l *opLog) check(ok bool, log io.Writer, format string, args ...any) {
	if !ok {
		l.failed++
		fmt.Fprintf(log, "WRONG ANSWER: "+format+"\n", args...)
	}
}

// fill writes the role metrics from one log per input dataset. A p50 is
// the mean over the datasets of each dataset's median, so that a run
// over several generated inputs reports their typical latency and not
// whichever input sits in the middle. tailQ is the workload's fixed tail
// percentile; the frozen sizes leave about twice the samples it needs to
// have ten beyond it, and a run that falls short (a machine twice as
// slow) says so in its report and still prints the value.
func fill(res *result, cfg runConfig, tailQ float64, logs ...*opLog) error {
	var query, tail, net, aux series
	for _, l := range logs {
		if len(l.query) > 0 {
			query = append(query, l.query.median())
			tail = append(tail, l.query.quantile(tailQ))
		}
		if len(l.net) > 0 {
			net = append(net, l.net.median())
		}
		if len(l.aux) > 0 {
			aux = append(aux, l.aux.median())
		}
	}
	all := mergeLogs(logs...)
	if len(query) == 0 || len(net) == 0 || len(aux) == 0 || len(all.wire) == 0 {
		return fmt.Errorf("too few operations completed: query=%d net=%d aux=%d wire=%d",
			len(all.query), len(all.net), len(all.aux), len(all.wire))
	}
	if !all.query.tailOK(tailQ) {
		fmt.Fprintf(cfg.log, "NOTE: p%.0f of the query role has fewer than ten samples beyond it (%d samples)\n",
			100*tailQ, len(all.query))
	}
	res.setTimed("query_p50_ms", query.mean(), len(all.query))
	res.setTimed("query_tail_ms", tail.mean(), len(all.query))
	res.setTimed("net_p50_ms", net.mean(), len(all.net))
	res.setTimed("aux_p50_ms", aux.mean(), len(all.aux))
	res.setTimed("wire_bytes_per_op", all.wire.mean(), len(all.wire))
	res.setTimed("alloc_mb_per_op", float64(all.allocBytes)/float64(all.ops)/(1<<20), all.ops)
	res.attempted += all.attempted
	res.failed += all.failed
	return nil
}

// mergeLogs pools the per-dataset logs of one run into one.
func mergeLogs(logs ...*opLog) opLog {
	var all opLog
	for _, l := range logs {
		all.query = append(all.query, l.query...)
		all.net = append(all.net, l.net...)
		all.aux = append(all.aux, l.aux...)
		all.wire = append(all.wire, l.wire...)
		all.allocBytes += l.allocBytes
		all.ops += l.ops
		all.attempted += l.attempted
		all.failed += l.failed
	}
	return all
}

// closer is an environment a set-up built and a run tears down.
type closer interface{ close() }

// setUp builds the environment reps times and keeps the last; the
// returned seconds are the median set-up time.
func setUp[E closer](reps int, build func() (E, error)) (env E, seconds float64, err error) {
	var times series
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		env, err = build()
		if err != nil {
			return env, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		if i < reps-1 {
			env.close()
		}
	}
	return env, times.median(), nil
}

// report prints the human-readable table and the driver's JSON line.
func report(w io.Writer, wl string, cfg runConfig, defs []metricDef, res *result) error {
	fmt.Fprintf(w, "workload=%s seed=%d seconds=%g trace=%v gomaxprocs=%d\n",
		wl, cfg.seed, cfg.seconds, cfg.trace, runtime.GOMAXPROCS(0))
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.failed == 0, res.attempted, res.failed, map[string]value{}}
	for _, d := range defs {
		v := res.values[d.Name]
		n := ""
		if c, ok := res.samples[d.Name]; ok {
			n = fmt.Sprintf("  n=%d", c)
		}
		fmt.Fprintf(w, "  %-38s %16.6g %-9s%s\n", d.Name, v, d.Unit, n)
		out.Metrics[d.Name] = value{v, d.Unit}
	}
	fmt.Fprintf(w, "  attempted=%d failed=%d failed_frac=%g\n",
		res.attempted, res.failed, float64(res.failed)/float64(max(res.attempted, 1)))
	blob, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", blob)
	return err
}

// runOne runs one workload once and prints its report.
func runOne(ctx context.Context, w workload, cfg runConfig) (*result, error) {
	res, err := w.run(ctx, cfg)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	if err := report(cfg.log, w.name, cfg, defs, res); err != nil {
		return nil, err
	}
	if res.failed > 0 {
		return res, fmt.Errorf("%s: %d of %d operations failed or returned a wrong answer", w.name, res.failed, res.attempted)
	}
	return res, nil
}

// spec is BENCHMARK.json, generated from the tables in this package.
func spec() any {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	var wls []wl
	for _, w := range workloads {
		wls = append(wls, wl{w.name, w.why})
	}
	var layers []layer
	for _, d := range perLayer {
		layers = append(layers, layer{d.Name, d.Unit, d.Better})
	}
	return struct {
		Command    []string    `json:"command"`
		Paths      []string    `json:"paths"`
		RunSeconds int         `json:"run_seconds"`
		Workloads  []wl        `json:"workloads"`
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []layer     `json:"per_layer"`
	}{[]string{"go", "run", "./bench"}, []string{"bench"}, runSeconds, wls, endToEnd, layers}
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: "+workloadNames())
		seed    = flag.Int64("seed", 42, "seed of the generated inputs")
		seconds = flag.Float64("seconds", runSeconds, "how long the run measures")
		trace   = flag.Int("trace", 0, "1 replays the workload under the span recorder and prints the per-layer metrics")
		all     = flag.Bool("all", false, "run every workload, untraced then traced")
		aa      = flag.Bool("aa", false, "A/A mode: run every workload on ten seeds, twice, and compare the two sets")
		doSpec  = flag.Bool("spec", false, "print BENCHMARK.json and exit")
	)
	flag.Parse()
	if *doSpec {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(spec()); err != nil {
			fatal(err)
		}
		return
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, trace: *trace != 0,
		scale: 1, outDir: "bench/out", log: os.Stdout}
	ctx := context.Background()
	switch {
	case *aa:
		if err := runAA(*seed, *seconds); err != nil {
			fatal(err)
		}
	case *all:
		for _, w := range workloads {
			for _, tr := range []bool{false, true} {
				cfg.trace = tr
				if _, err := runOne(ctx, w, cfg); err != nil {
					fatal(err)
				}
			}
		}
	default:
		w, ok := findWorkload(*name)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q (have %s)", *name, workloadNames()))
		}
		if _, err := runOne(ctx, w, cfg); err != nil {
			fatal(err)
		}
	}
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	sort.Strings(names)
	return fmt.Sprint(names)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}
