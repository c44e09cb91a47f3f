// Command skyline computes the skyline of a CSV dataset (one point per
// line, comma-separated coordinates; smaller is better in every
// dimension) using the parallel three-phase pipeline.
//
// Usage:
//
//	skygen -dist anti -n 100000 -d 5 > anti.csv
//	skyline -in anti.csv -strategy zdg -local zs -merge zm -m 32
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
	"zskyline/internal/ooc"
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
		oocBatch = flag.Int("ooc", 0, "out-of-core mode: stream a binary file in batches of this size (0 = load fully)")
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

	if *oocBatch > 0 {
		if *format != "binary" || *in == "-" {
			fmt.Fprintln(os.Stderr, "skyline: -ooc requires -format binary and a file path")
			os.Exit(2)
		}
		sky, err := ooc.SkylineFile(*in, ooc.Options{BatchSize: *oocBatch})
		if err != nil {
			fmt.Fprintf(os.Stderr, "skyline: %v\n", err)
			os.Exit(1)
		}
		writeSkyline(sky)
		return
	}

	r := os.Stdin
	if *in != "-" {
		f, err := os.Open(*in)
		if err != nil {
			fmt.Fprintf(os.Stderr, "skyline: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		r = f
	}
	var ds *point.Dataset
	var err error
	switch *format {
	case "csv":
		ds, err = codec.ReadCSV(r)
	case "binary":
		ds, err = codec.ReadBinary(r)
	default:
		err = fmt.Errorf("unknown format %q", *format)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "skyline: %v\n", err)
		os.Exit(1)
	}
	if ds.Len() == 0 {
		return
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
	sky, rep, err := eng.Skyline(ctx, ds)
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

// writeSkyline prints sky to stdout as CSV; a failed write exits 1.
func writeSkyline(sky []point.Point) {
	if err := codec.WriteCSV(os.Stdout, &point.Dataset{Points: sky}); err != nil {
		fmt.Fprintf(os.Stderr, "skyline: %v\n", err)
		os.Exit(1)
	}
}
