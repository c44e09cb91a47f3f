// Command skybench regenerates the paper's evaluation tables and
// figures (see DESIGN.md §3 for the experiment index).
//
// Usage:
//
//	skybench -run all                 # every figure, laptop scale
//	skybench -run fig7a,fig12 -scale 0.2
//	skybench -run fig13 -csv          # machine-readable output
//
// The -scale flag multiplies every dataset size; 1.0 corresponds to
// the paper's sizes divided by 1000.
//
// -trace wraps each experiment in a span and prints the run's trace
// report to stderr; -metrics-addr serves GET /metrics and
// /debug/pprof/ for the duration of the run.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"zskyline/internal/exp"
	"zskyline/internal/obs"
)

func main() {
	var (
		run       = flag.String("run", "all", "comma-separated experiment ids, or 'all'")
		scale     = flag.Float64("scale", 1.0, "dataset size multiplier")
		workers   = flag.Int("workers", 8, "tasks each run executes at once")
		seed      = flag.Int64("seed", 42, "generator seed")
		csv       = flag.Bool("csv", false, "emit CSV instead of aligned tables")
		list      = flag.Bool("list", false, "list available experiments and exit")
		outdir    = flag.String("outdir", "", "also write each experiment's table as <outdir>/<id>.csv")
		trace     = flag.Bool("trace", false, "print a per-run trace report (one span tree per experiment) to stderr")
		metrics_  = flag.String("metrics-addr", "", "serve GET /metrics and /debug/pprof/ on this address during the run")
		benchTag  = flag.String("bench-tag", "", "run the pinned cross-executor benchmark suite and write BENCH_<tag>.json to -outdir (default: current directory)")
		benchCfgs = flag.String("bench-configs", "", "comma-separated named bench configs (small|medium|large; default all three)")
		checkBase = flag.String("check-against", "", "compare the fresh -bench-tag run (or -check-file) against this baseline BENCH_*.json; any regression beyond the tolerance bands exits non-zero")
		checkFile = flag.String("check-file", "", "compare this existing BENCH_*.json against -check-against instead of running the suite")
		wallTol   = flag.Float64("check-wall-tol", 1.5, "wall-clock regression band: current may be at most base × this (bases under 1ms are skipped as noise)")
		allocTol  = flag.Float64("check-alloc-tol", 1.4, "allocation-count regression band")
		wireTol   = flag.Float64("check-wire-tol", 1.3, "wire-byte regression band")
	)
	flag.Parse()

	if *list {
		for _, e := range exp.All() {
			fmt.Printf("%-8s %-10s %s\n", e.ID, e.PaperRef, e.Title)
		}
		return
	}

	tol := checkTolerances{wall: *wallTol, allocs: *allocTol, wire: *wireTol}
	if *checkFile != "" {
		if *checkBase == "" {
			fmt.Fprintln(os.Stderr, "skybench: -check-file requires -check-against")
			os.Exit(2)
		}
		cur, err := loadBenchReport(*checkFile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "skybench: %v\n", err)
			os.Exit(1)
		}
		ok, err := runCheck(*checkBase, cur, tol)
		if err != nil {
			fmt.Fprintf(os.Stderr, "skybench: %v\n", err)
			os.Exit(1)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}

	if *benchTag != "" {
		rep, err := runBenchSuite(*benchTag, *benchCfgs, *workers, *seed, *outdir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "skybench: %v\n", err)
			os.Exit(1)
		}
		if *checkBase != "" {
			ok, err := runCheck(*checkBase, rep, tol)
			if err != nil {
				fmt.Fprintf(os.Stderr, "skybench: %v\n", err)
				os.Exit(1)
			}
			if !ok {
				os.Exit(1)
			}
		}
		return
	}
	if *checkBase != "" {
		fmt.Fprintln(os.Stderr, "skybench: -check-against requires -bench-tag or -check-file")
		os.Exit(2)
	}

	var selected []exp.Experiment
	if *run == "all" {
		selected = exp.All()
	} else {
		for _, id := range strings.Split(*run, ",") {
			id = strings.TrimSpace(id)
			e, ok := exp.Get(id)
			if !ok {
				fmt.Fprintf(os.Stderr, "skybench: unknown experiment %q (try -list)\n", id)
				os.Exit(2)
			}
			selected = append(selected, e)
		}
	}

	reg := obs.NewRegistry()
	if *metrics_ != "" {
		addr, stopMetrics, err := obs.ServeMetrics(*metrics_, reg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "skybench: %v\n", err)
			os.Exit(1)
		}
		defer stopMetrics()
		fmt.Fprintf(os.Stderr, "skybench: metrics on http://%s/metrics\n", addr)
	}

	params := exp.Params{Scale: *scale, Workers: *workers, Seed: *seed}
	ctx := context.Background()
	var tr *obs.Trace
	if *trace {
		tr = obs.NewTrace("skybench")
		ctx = obs.ContextWithTrace(ctx, tr)
	}
	for _, e := range selected {
		start := time.Now()
		expSpan, ectx := obs.StartSpan(ctx, "exp/"+e.ID)
		table, err := e.Run(ectx, params)
		expSpan.End()
		if err != nil {
			fmt.Fprintf(os.Stderr, "skybench: %s: %v\n", e.ID, err)
			os.Exit(1)
		}
		expSpan.SetAttr("rows", len(table.Rows))
		if *csv {
			fmt.Printf("# %s — %s\n%s\n", table.ID, table.Title, table.CSV())
		} else {
			fmt.Println(table.Format())
			fmt.Printf("   (%s completed in %v)\n\n", e.ID, time.Since(start).Round(time.Millisecond))
		}
		if *outdir != "" {
			if err := os.MkdirAll(*outdir, 0o755); err != nil {
				fmt.Fprintf(os.Stderr, "skybench: %v\n", err)
				os.Exit(1)
			}
			path := filepath.Join(*outdir, table.ID+".csv")
			if err := os.WriteFile(path, []byte(table.CSV()), 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "skybench: %v\n", err)
				os.Exit(1)
			}
		}
	}
	if *trace {
		tr.Finish()
		obs.WriteReport(os.Stderr, tr, reg)
	}
}
