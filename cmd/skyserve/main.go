// Command skyserve serves skyline queries over one or more named
// datasets as a JSON HTTP API.
//
// Usage:
//
//	skyserve -in hotels.csv -listen :8080
//	skyserve -dataset hotels=hotels.csv -dataset cars=cars.csv
//	curl localhost:8080/datasets
//	curl localhost:8080/datasets/hotels/skyline
//	curl -X POST localhost:8080/datasets/hotels/ingest -d '{"points":[[90,3]]}'
//	curl -X POST localhost:8080/datasets -d '{"name":"live","attrs":["x","y"]}'
//	curl localhost:8080/metrics
//
// -in serves its CSV as the dataset named "default", which also backs
// the single-dataset routes (/healthz, /skyline, /query, /explain,
// /topk):
//
//	curl -X POST localhost:8080/query \
//	     -d '{"prefer":[{"attr":"price","dir":"min"},{"attr":"rating","dir":"max"}]}'
//
// Each CSV's first line may name the attributes; otherwise columns are
// c0, c1, ... Datasets are versioned: every ingest bumps the version,
// invalidates that dataset's cached query results, and wakes
// /datasets/{name}/subscribe long-polls. -cache bounds each dataset's
// result cache; -max-inflight bounds concurrently executing queries
// per dataset (excess load is rejected with 429 + Retry-After).
//
// GET /metrics serves request counters, latency quantiles, per-dataset
// gauges, and cache/admission counters in Prometheus text format; GET
// /debug/events serves the per-query event log (ring capacity -events,
// sampling -event-sample, NDJSON sink -events-out, ?dataset= filter);
// -pprof adds the /debug/pprof/ endpoints. Every response carries an
// X-Request-Id header, each request is logged as one structured line
// (-access-log), and requests slower than -slow carry their full trace
// on the event record. On SIGINT/SIGTERM the server stops accepting
// connections and drains in-flight queries before exiting.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"zskyline/internal/codec"
	"zskyline/internal/obs"
	"zskyline/internal/point"
	"zskyline/internal/server"
)

// ingestChunk is the block size dataset CSVs are streamed into the
// engine with — bounded memory per merge, and the skyline stays
// current after every chunk.
const ingestChunk = 4096

type namedCSV struct{ name, path string }

func main() {
	var (
		in          = flag.String("in", "", "CSV served as the \"default\" dataset (first line may be a header)")
		listen      = flag.String("listen", "127.0.0.1:8080", "address to serve on")
		bits        = flag.Int("bits", 16, "Z-order grid resolution")
		dom         = flag.String("dominance", "", "dominance descriptor for loaded datasets (pareto, flex:w1,w2;..., kdom:k, robust[:rho])")
		cacheSize   = flag.Int("cache", 256, "result-cache entries per dataset (0 disables)")
		maxInFlight = flag.Int("max-inflight", 64, "concurrently executing queries per dataset before 429s (0 = unlimited)")
		pprofF      = flag.Bool("pprof", false, "expose /debug/pprof/ endpoints")
		slow        = flag.Duration("slow", 250*time.Millisecond, "promote the trace of requests slower than this onto their event record (0 disables)")
		eventCap    = flag.Int("events", 1024, "per-query event ring capacity served at /debug/events")
		sample      = flag.Int("event-sample", 1, "keep 1 in N query events (errors and slow queries always kept)")
		eventsOut   = flag.String("events-out", "", "also append every event as NDJSON to this file")
		accessLog   = flag.String("access-log", "stderr", "structured per-request log: stderr, off, or a file path")
	)
	var sources []namedCSV
	flag.Func("dataset", "name=path.csv; repeatable — serve this CSV as a named dataset", func(v string) error {
		name, path, ok := strings.Cut(v, "=")
		if !ok || name == "" || path == "" {
			return fmt.Errorf("want name=path.csv, got %q", v)
		}
		sources = append(sources, namedCSV{name, path})
		return nil
	})
	flag.Parse()
	if *in != "" {
		sources = append([]namedCSV{{server.DefaultDataset, *in}}, sources...)
	}
	if len(sources) == 0 {
		fmt.Fprintln(os.Stderr, "skyserve: -in or -dataset is required")
		os.Exit(2)
	}

	svc := server.NewService(server.Config{
		Bits:        *bits,
		CacheSize:   sizeOrDisabled(*cacheSize),
		MaxInFlight: sizeOrDisabled(*maxInFlight),
	})
	for _, src := range sources {
		if err := load(svc, src, *dom); err != nil {
			fmt.Fprintf(os.Stderr, "skyserve: %v\n", err)
			os.Exit(1)
		}
	}

	svc.SetSlowThreshold(*slow)
	if *eventCap > 0 {
		svc.SetEventCapacity(*eventCap)
	}
	if *sample > 1 {
		svc.SetEventSampling(*sample)
	}
	if *eventsOut != "" {
		f, err := os.OpenFile(*eventsOut, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fmt.Fprintf(os.Stderr, "skyserve: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		svc.Events().SetSink(f)
	}
	switch *accessLog {
	case "off":
	case "stderr":
		svc.SetAccessLog(os.Stderr)
	default:
		f, err := os.OpenFile(*accessLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fmt.Fprintf(os.Stderr, "skyserve: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		svc.SetAccessLog(f)
	}

	handler := svc.Handler()
	if *pprofF {
		mux := http.NewServeMux()
		mux.Handle("/", handler)
		obs.RegisterPprof(mux)
		handler = mux
	}
	httpSrv := &http.Server{
		Addr:              *listen,
		Handler:           handler,
		ReadTimeout:       30 * time.Second,
		ReadHeaderTimeout: 5 * time.Second,
		WriteTimeout:      60 * time.Second,
		IdleTimeout:       120 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(),
		os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	for _, e := range svc.Engines() {
		info := e.Info()
		fmt.Printf("skyserve: dataset %q: %d points x %d attrs, %d on skyline (%s)\n",
			info.Name, info.Points, len(info.Attrs), info.Skyline, info.Dominance)
	}
	fmt.Printf("skyserve: %d dataset(s) on http://%s\n", len(svc.Engines()), *listen)

	select {
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "skyserve: %v\n", err)
			os.Exit(1)
		}
	case <-ctx.Done():
		stop()
		fmt.Println("skyserve: shutting down, draining in-flight queries")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(shutdownCtx); err != nil {
			fmt.Fprintf(os.Stderr, "skyserve: shutdown: %v\n", err)
			os.Exit(1)
		}
	}
}

// sizeOrDisabled maps a CLI "0 disables" value onto the Config
// convention where 0 means default and negative disables.
func sizeOrDisabled(n int) int {
	if n == 0 {
		return -1
	}
	return n
}

// load reads one CSV and serves it as a named dataset, streaming the
// rows in as bounded ingest blocks so the skyline (and its build-time
// gauge) is ready before the listener accepts queries.
func load(svc *server.Service, src namedCSV, dom string) error {
	f, err := os.Open(src.path)
	if err != nil {
		return err
	}
	attrs, rows, err := codec.ReadNamedCSV(f)
	f.Close()
	if err != nil {
		return fmt.Errorf("%s: %w", src.path, err)
	}
	pts := make([]point.Point, len(rows))
	for i, r := range rows {
		pts[i] = point.Point(r)
	}
	ds, err := point.NewDataset(len(attrs), pts)
	if err != nil {
		return fmt.Errorf("%s: %w", src.path, err)
	}
	mins, maxs, err := ds.Bounds()
	if err != nil {
		return fmt.Errorf("%s: %w", src.path, err)
	}
	e, err := svc.CreateDataset(server.DatasetSpec{
		Name:      src.name,
		Attrs:     attrs,
		Dominance: dom,
		Mins:      mins,
		Maxs:      maxs,
	})
	if err != nil {
		return err
	}
	for lo := 0; lo < ds.Len(); lo += ingestChunk {
		hi := min(lo+ingestChunk, ds.Len())
		if _, err := svc.Ingest(e, point.BlockOf(ds.Dims, ds.Points[lo:hi])); err != nil {
			return err
		}
	}
	return nil
}
