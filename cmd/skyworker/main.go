// Command skyworker runs one distributed skyline worker: an RPC server
// that executes the phase-2 map/combine/reduce work shipped to it by a
// skydist coordinator, and holds resident shards for the sharded tier.
//
// Usage:
//
//	skyworker -listen :7071 &
//	skyworker -listen :7072 &
//	skydist -workers localhost:7071,localhost:7072 -in data.csv
//
// -metrics-addr serves the worker's RPC counters (request counts,
// request/response bytes, latency histograms per method) in Prometheus
// text format, plus /debug/pprof/; -trace prints the same counters as
// a report on shutdown.
//
// -fault arms a deterministic fault-injection plan (delay, drop, or
// sever the Nth call of an RPC method) for chaos-drilling a
// coordinator's retry/hedging/resurrection machinery; see
// docs/OPERATIONS.md.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"zskyline/internal/dist"
	"zskyline/internal/obs"
)

func main() {
	var (
		listen   = flag.String("listen", "127.0.0.1:7071", "address to listen on")
		trace    = flag.Bool("trace", false, "print the worker's RPC counter report to stderr on shutdown")
		metrics_ = flag.String("metrics-addr", "", "serve GET /metrics and /debug/pprof/ on this address")
		fault    = flag.String("fault", "", "deterministic fault plan for chaos drills, e.g. 'Worker.ReduceGroup:1:delay:2s,Worker.ReduceGroup:2x3:sever,Worker.ReduceGroup:5:drop'")
		maxRes   = flag.Int("max-resident", 0, "cap resident rows per shard in cluster mode; stores past the cap are rejected (0 = unlimited)")
	)
	flag.Parse()

	var faults *dist.FaultPlan
	if *fault != "" {
		fp, perr := dist.ParseFaultPlan(*fault)
		if perr != nil {
			fmt.Fprintf(os.Stderr, "skyworker: %v\n", perr)
			os.Exit(2)
		}
		faults = fp
		fmt.Fprintf(os.Stderr, "skyworker: fault injection armed: %s\n", *fault)
	}
	ws, err := dist.StartWorkerWithOptions(*listen, dist.WorkerOptions{Faults: faults, MaxResidentRows: *maxRes})
	if err != nil {
		fmt.Fprintf(os.Stderr, "skyworker: %v\n", err)
		os.Exit(1)
	}
	if *metrics_ != "" {
		addr, stopMetrics, merr := obs.ServeMetrics(*metrics_, ws.Metrics())
		if merr != nil {
			fmt.Fprintf(os.Stderr, "skyworker: %v\n", merr)
			os.Exit(1)
		}
		defer stopMetrics()
		fmt.Printf("skyworker: metrics on http://%s/metrics\n", addr)
	}
	fmt.Printf("skyworker listening on %s\n", ws.Addr())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("skyworker: shutting down")
	if *trace {
		obs.WriteReport(os.Stderr, nil, ws.Metrics())
	}
	if err := ws.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "skyworker: close: %v\n", err)
		os.Exit(1)
	}
}
