// Command skyline computes the skyline of a CSV dataset (one point per
// line, comma-separated coordinates; smaller is better in every
// dimension) using the parallel three-phase pipeline.
//
// Usage:
//
//	skygen -dist anti -n 100000 -d 5 > anti.csv
//	skyline -in anti.csv -strategy zdg -local zs -merge zm -m 32
//
// With -ooc N a ZSKY file is never loaded: the same pipeline reads it
// in passes, in map tasks of N rows (skyline -in anti.zsky -format
// binary -ooc 65536), and every other flag applies as in memory.
//
// The report flag prints the pipeline's report to stderr — phase
// timings, routed and candidate counts, both balance statistics — and
// the run's dominance and region test counts.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"zskyline/internal/codec"
	"zskyline/internal/core"
	"zskyline/internal/obs"
	"zskyline/internal/point"
)

func parseStrategy(s string) (core.Strategy, error) {
	switch strings.ToLower(s) {
	case "grid":
		return core.Grid, nil
	case "angle":
		return core.Angle, nil
	case "random":
		return core.Random, nil
	case "naivez", "naive-z":
		return core.NaiveZ, nil
	case "zhg":
		return core.ZHG, nil
	case "zdg":
		return core.ZDG, nil
	}
	return 0, fmt.Errorf("unknown strategy %q", s)
}

func main() {
	var (
		in       = flag.String("in", "-", "input file ('-' for stdin)")
		strategy = flag.String("strategy", "zdg", "grid|angle|random|naivez|zhg|zdg")
		local    = flag.String("local", "zs", "local skyline algorithm: sb|zs")
		merge    = flag.String("merge", "zm", "merge algorithm: sb|zs|zm")
		m        = flag.Int("m", 32, "number of groups")
		workers  = flag.Int("workers", 8, "tasks run at once")
		ratio    = flag.Float64("sample", 0.02, "sampling ratio")
		seed     = flag.Int64("seed", 42, "sampling seed")
		report   = flag.Bool("report", false, "print the pipeline report to stderr")
		format   = flag.String("format", "csv", "input format: csv|binary")
		oocBatch = flag.Int("ooc", 0, "out-of-core mode: run a binary file in passes, in map tasks of this many rows (0 = load fully)")
		trace    = flag.Bool("trace", false, "print a per-run trace report (phase spans + counters) to stderr")
		metrics_ = flag.String("metrics-addr", "", "serve GET /metrics and /debug/pprof/ on this address during the run")
	)
	flag.Parse()

	reg := obs.NewRegistry()
	if *metrics_ != "" {
		addr, stopMetrics, err := obs.ServeMetrics(*metrics_, reg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "skyline: %v\n", err)
			os.Exit(1)
		}
		defer stopMetrics()
		fmt.Fprintf(os.Stderr, "skyline: metrics on http://%s/metrics\n", addr)
	}

	st, err := parseStrategy(*strategy)
	if err != nil {
		fmt.Fprintf(os.Stderr, "skyline: %v\n", err)
		os.Exit(2)
	}
	cfg := core.Defaults()
	cfg.Strategy = st
	cfg.M = *m
	cfg.Workers = *workers
	cfg.SampleRatio = *ratio
	cfg.Seed = *seed
	cfg.ChunkSize = *oocBatch
	if strings.EqualFold(*local, "sb") {
		cfg.Local = core.SB
	}
	switch strings.ToLower(*merge) {
	case "sb":
		cfg.Merge = core.MergeSB
	case "zs":
		cfg.Merge = core.MergeZS
	}
	eng, err := core.NewEngine(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "skyline: %v\n", err)
		os.Exit(2)
	}
	ctx := context.Background()
	var tr *obs.Trace
	if *trace {
		tr = obs.NewTrace("skyline-query")
		ctx = obs.ContextWithTrace(ctx, tr)
	}

	var sky []point.Point
	var rep *core.Report
	if *oocBatch > 0 {
		if *format != "binary" || *in == "-" {
			fmt.Fprintln(os.Stderr, "skyline: -ooc requires -format binary and a file path")
			os.Exit(2)
		}
		sky, rep, err = eng.SkylineFile(ctx, *in)
	} else {
		var ds *point.Dataset
		if ds, err = readInput(*in, *format); err == nil {
			sky, rep, err = eng.Skyline(ctx, ds)
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "skyline: %v\n", err)
		os.Exit(1)
	}
	tr.Finish()
	reg.AbsorbTally(rep.Tally)

	writeSkyline(sky)
	if *trace {
		obs.WriteReport(os.Stderr, tr, reg)
	}
	if *report {
		rep.WriteTo(os.Stderr)
		fmt.Fprintf(os.Stderr, "dominanceTests=%d regionTests=%d\n", rep.Tally.DominanceTests, rep.Tally.RegionTests)
	}
}

// readInput loads the whole dataset at path ('-' for stdin) in format.
func readInput(path, format string) (*point.Dataset, error) {
	r := os.Stdin
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		r = f
	}
	switch format {
	case "csv":
		return codec.ReadCSV(r)
	case "binary":
		return codec.ReadBinary(r)
	}
	return nil, fmt.Errorf("unknown format %q", format)
}

// writeSkyline prints sky to stdout as CSV; a failed write exits 1.
func writeSkyline(sky []point.Point) {
	if err := codec.WriteCSV(os.Stdout, &point.Dataset{Points: sky}); err != nil {
		fmt.Fprintf(os.Stderr, "skyline: %v\n", err)
		os.Exit(1)
	}
}
