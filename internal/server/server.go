// Package server exposes skyline engines over HTTP as a multi-tenant
// JSON query service. A Service hosts any number of named datasets,
// each an independently versioned Engine (incrementally maintained
// skyline, or a sliding window) with its own dominance relation,
// result cache, and admission limit:
//
//	GET    /datasets                      list datasets
//	POST   /datasets                      create a dataset (DatasetSpec)
//	DELETE /datasets/{name}               drop a dataset
//	GET    /datasets/{name}/healthz       liveness + shape + version
//	POST   /datasets/{name}/ingest        {"points":[[...],...]} merge a batch
//	GET    /datasets/{name}/skyline       the full skyline
//	POST   /datasets/{name}/query         {"prefer":[{"attr":"price","dir":"min"},...]}
//	POST   /datasets/{name}/explain       {"point":[...]} -> dominators
//	POST   /datasets/{name}/topk          {"k":5,"weights":[...]} -> ranked skyline
//	GET    /datasets/{name}/snapshot      binary state snapshot
//	POST   /datasets/{name}/restore       recreate a dataset from a snapshot
//	GET    /datasets/{name}/subscribe     long-poll for skyline changes
//
// The pre-multi-tenant routes (GET /healthz, GET /skyline, POST
// /query, POST /explain, POST /topk) stay mounted and serve the
// dataset named "default", with their JSON contracts unchanged.
//
// Query responses are cached per dataset under a key embedding the
// dataset version, the canonical query shape, and the dominance
// descriptor, so ingest can never cause a stale read; saturated
// datasets reject queries with 429 + Retry-After instead of queueing.
package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"zskyline/internal/obs"
	"zskyline/internal/point"
)

// DefaultDataset is the dataset name the legacy single-dataset routes
// resolve to.
const DefaultDataset = "default"

// Config tunes a Service.
type Config struct {
	// Bits is the default Z-order resolution for new datasets (16 when
	// zero).
	Bits int
	// CacheSize bounds each dataset's result cache in entries; 0 means
	// the default (256), negative disables caching.
	CacheSize int
	// MaxInFlight bounds concurrently executing queries per dataset; 0
	// means the default (64), negative means unlimited.
	MaxInFlight int
}

func (c Config) withDefaults() Config {
	if c.Bits <= 0 {
		c.Bits = 16
	}
	switch {
	case c.CacheSize == 0:
		c.CacheSize = 256
	case c.CacheSize < 0:
		c.CacheSize = 0
	}
	switch {
	case c.MaxInFlight == 0:
		c.MaxInFlight = 64
	case c.MaxInFlight < 0:
		c.MaxInFlight = 0
	}
	return c
}

// Service hosts the dataset registry and the shared observability
// surface (one metrics registry and one event log across datasets;
// series carry a dataset label).
type Service struct {
	cfg      Config
	datasets *Registry
	reg      *obs.Registry
	events   *obs.EventLog

	// slow is the latency threshold past which a request's sampled
	// trace is promoted onto its event record.
	slow time.Duration
	// accessLog, when non-nil, receives one structured JSON line per
	// request.
	accessLog   io.Writer
	accessLogMu sync.Mutex
}

// NewService builds an empty multi-dataset service.
func NewService(cfg Config) *Service {
	return &Service{
		cfg:      cfg.withDefaults(),
		datasets: NewRegistry(),
		reg:      obs.NewRegistry(),
		events:   obs.NewEventLog(0),
		slow:     250 * time.Millisecond,
	}
}

// CreateDataset validates spec, builds its engine, and registers it.
func (s *Service) CreateDataset(spec DatasetSpec) (*Engine, error) {
	e, err := newEngine(spec, s.cfg.Bits, s.cfg.CacheSize, s.cfg.MaxInFlight)
	if err != nil {
		return nil, err
	}
	if err := s.datasets.Add(e); err != nil {
		return nil, err
	}
	s.reg.Gauge("zsky_datasets").Set(float64(s.datasets.Len()))
	return e, nil
}

// DropDataset removes the named dataset, reporting whether it existed.
func (s *Service) DropDataset(name string) bool {
	ok := s.datasets.Delete(name)
	if ok {
		s.reg.Gauge("zsky_datasets").Set(float64(s.datasets.Len()))
	}
	return ok
}

// Ingest merges a block into e, eagerly rebuilding its skyline, and
// refreshes the dataset's gauges (points, skyline size, build time)
// and the absorbed dominance-work counters.
func (s *Service) Ingest(e *Engine, b point.Block) (added int, err error) {
	return s.ingest(nil, e, b)
}

func (s *Service) ingest(r *http.Request, e *Engine, b point.Block) (added int, err error) {
	ctx := contextOf(r)
	start := time.Now()
	added, _, err = e.IngestBlock(ctx, b)
	dur := time.Since(start)
	if err != nil {
		return added, err
	}
	snap := e.snapshot()
	ds := obs.L("dataset", e.name)
	s.reg.Counter("zsky_ingest_rows_total", ds).Add(int64(b.Len()))
	s.reg.Gauge("zsky_dataset_points", ds).Set(float64(snap.seen))
	s.reg.Gauge("zsky_skyline_size", ds).Set(float64(len(snap.sky)))
	s.reg.Gauge("zsky_skyline_build_seconds", ds).Set(dur.Seconds())
	s.reg.AbsorbTally(e.tallyDelta())
	return added, nil
}

// contextOf tolerates the request-free ingest path.
func contextOf(r *http.Request) context.Context {
	if r != nil {
		return r.Context()
	}
	return context.Background()
}

// Events returns the per-query event log (also served at GET
// /debug/events, filterable by ?dataset=).
func (s *Service) Events() *obs.EventLog { return s.events }

// SetSlowThreshold sets the latency past which a request's trace is
// promoted onto its event record; 0 disables promotion.
func (s *Service) SetSlowThreshold(d time.Duration) { s.slow = d }

// SetEventSampling keeps one in every n query events (errors and slow
// queries are always kept).
func (s *Service) SetEventSampling(n int) { s.events.SetSampleEvery(n) }

// SetEventCapacity replaces the event ring with one holding the last
// n events. Call before Handler — the routes capture the ring.
func (s *Service) SetEventCapacity(n int) { s.events = obs.NewEventLog(n) }

// SetAccessLog directs one structured JSON line per request (request
// ID, route, status, duration) to w; nil disables access logging.
func (s *Service) SetAccessLog(w io.Writer) { s.accessLog = w }

// Handler returns the HTTP routes, each instrumented with request
// counters, latency quantiles, per-request tracing, and event-log
// records, plus GET /metrics (Prometheus text) and GET /debug/events.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	route := func(pattern, name string, h http.HandlerFunc) {
		mux.Handle(pattern, s.observe(name, h))
	}
	// Legacy single-dataset surface -> the "default" dataset.
	route("GET /healthz", "/healthz", s.forDefault(s.handleHealth))
	route("GET /skyline", "/skyline", s.forDefault(s.handleSkyline))
	route("POST /query", "/query", s.forDefault(s.handleQuery))
	route("POST /explain", "/explain", s.forDefault(s.handleExplain))
	route("POST /topk", "/topk", s.forDefault(s.handleTopK))
	// Multi-tenant surface.
	route("GET /datasets", "/datasets", s.handleListDatasets)
	route("POST /datasets", "/datasets", s.handleCreateDataset)
	route("DELETE /datasets/{name}", "/datasets/{name}", s.handleDeleteDataset)
	route("GET /datasets/{name}/healthz", "/datasets/{name}/healthz", s.forNamed(s.handleHealth))
	route("POST /datasets/{name}/ingest", "/datasets/{name}/ingest", s.forNamed(s.handleIngest))
	route("GET /datasets/{name}/skyline", "/datasets/{name}/skyline", s.forNamed(s.handleSkyline))
	route("POST /datasets/{name}/query", "/datasets/{name}/query", s.forNamed(s.handleQuery))
	route("POST /datasets/{name}/explain", "/datasets/{name}/explain", s.forNamed(s.handleExplain))
	route("POST /datasets/{name}/topk", "/datasets/{name}/topk", s.forNamed(s.handleTopK))
	route("GET /datasets/{name}/snapshot", "/datasets/{name}/snapshot", s.forNamed(s.handleSnapshot))
	route("POST /datasets/{name}/restore", "/datasets/{name}/restore", s.handleRestore)
	route("GET /datasets/{name}/subscribe", "/datasets/{name}/subscribe", s.forNamed(s.handleSubscribe))
	mux.Handle("GET /metrics", s.reg.PrometheusHandler())
	mux.Handle("GET /debug/events", s.events.Handler())
	return mux
}

// engineHandler is a route handler bound to one resolved dataset.
type engineHandler func(w http.ResponseWriter, r *http.Request, e *Engine)

// forDefault resolves the legacy routes to the "default" dataset.
func (s *Service) forDefault(h engineHandler) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		e := s.datasets.Get(DefaultDataset)
		if e == nil {
			writeErr(w, r, http.StatusNotFound, fmt.Errorf("no %q dataset", DefaultDataset))
			return
		}
		h(w, r, e)
	}
}

// forNamed resolves {name} from the path.
func (s *Service) forNamed(h engineHandler) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		name := r.PathValue("name")
		e := s.datasets.Get(name)
		if e == nil {
			writeErr(w, r, http.StatusNotFound, fmt.Errorf("unknown dataset %q", name))
			return
		}
		h(w, r, e)
	}
}

// respRecorder captures the response status for the request counter,
// the event record and the access log.
type respRecorder struct {
	http.ResponseWriter
	status int
}

func (r *respRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

func (r *respRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// observe wraps a route with the query-level observability layer:
//
//   - a request ID (client-supplied X-Request-Id or generated),
//     returned in the X-Request-Id response header and propagated via
//     context so plan spans and downstream RPCs join the query;
//   - a per-request trace whose top-level child spans become the
//     event's phase walls, promoted in full onto the event when the
//     request is slower than the slow threshold;
//   - a structured Event in the ring (errors and slow queries are
//     recorded unsampled), carrying the dataset identity ("name@vN"),
//     dominance descriptor, and cache outcome set by the handler;
//   - a request counter by route and status code, a latency histogram
//     by route, a per-(route, dataset) latency quantile family, and one
//     access-log line.
func (s *Service) observe(route string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		id := r.Header.Get("X-Request-Id")
		if id == "" {
			id = obs.NewRequestID()
		}
		w.Header().Set("X-Request-Id", id)
		ev := &obs.Event{
			ID:    id,
			Kind:  "query",
			Route: route,
		}
		tr := obs.NewTrace(route)
		tr.Root().SetAttr("request_id", id)
		ctx := obs.ContextWithRequestID(r.Context(), id)
		ctx = obs.ContextWithTrace(ctx, tr)
		ctx = obs.ContextWithEvent(ctx, ev)
		rec := &respRecorder{ResponseWriter: w, status: http.StatusOK}

		h(rec, r.WithContext(ctx))

		dur := time.Since(start)
		tr.Finish()
		ev.Status = rec.status
		ev.DurationMS = float64(dur.Microseconds()) / 1000
		for _, phase := range tr.Root().Children() {
			ev.SetPhase(phase.Name(), phase.Duration())
		}
		if rec.status >= 500 && ev.Error == "" {
			ev.SetError("internal", http.StatusText(rec.status))
		}
		slow := s.slow > 0 && dur >= s.slow
		if slow {
			ev.Trace = obs.Report(tr, nil)
		}
		if slow || ev.Error != "" {
			s.events.RecordForced(*ev)
		} else {
			s.events.Record(*ev)
		}
		labels := []obs.Label{obs.L("route", route)}
		if ds := ev.DatasetName(); ds != "" {
			labels = append(labels, obs.L("dataset", ds))
		}
		s.reg.Latency("zsky_query_seconds", labels...).Observe(dur)
		s.reg.Counter("zsky_http_requests_total", obs.L("route", route), obs.L("code", strconv.Itoa(rec.status))).Add(1)
		s.reg.Histogram("zsky_http_request_seconds", nil, obs.L("route", route)).Observe(dur.Seconds())
		s.logAccess(id, route, rec.status, dur)
	}
}

// logAccess emits one structured line per request.
func (s *Service) logAccess(id, route string, status int, dur time.Duration) {
	if s.accessLog == nil {
		return
	}
	line, err := json.Marshal(map[string]any{
		"time":        time.Now().Format(time.RFC3339Nano),
		"id":          id,
		"route":       route,
		"status":      status,
		"duration_ms": float64(dur.Microseconds()) / 1000,
	})
	if err != nil {
		return
	}
	s.accessLogMu.Lock()
	s.accessLog.Write(append(line, '\n'))
	s.accessLogMu.Unlock()
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// writeErr reports an error to the client and classifies it on the
// request's event record.
func writeErr(w http.ResponseWriter, r *http.Request, status int, err error) {
	class := "internal"
	switch {
	case status == http.StatusTooManyRequests:
		class = "saturated"
	case status == http.StatusNotFound:
		class = "not-found"
	case status < 500:
		class = "bad-request"
	}
	obs.EventFrom(r.Context()).SetError(class, err.Error())
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// admit reserves an in-flight slot on e, rejecting with 429 +
// Retry-After when the dataset is saturated. Callers must invoke the
// returned release func (when ok) once the query completes.
func (s *Service) admit(w http.ResponseWriter, r *http.Request, e *Engine) (release func(), ok bool) {
	release, ok = e.tryAcquire()
	if !ok {
		s.reg.Counter("zsky_admission_rejects_total", obs.L("dataset", e.name)).Add(1)
		w.Header().Set("Retry-After", "1")
		writeErr(w, r, http.StatusTooManyRequests,
			fmt.Errorf("dataset %q is saturated; retry shortly", e.name))
		return nil, false
	}
	return release, true
}

// tagEvent stamps the request's event with the dataset identity and
// dominance descriptor at the served version.
func tagEvent(r *http.Request, e *Engine, version uint64) *obs.Event {
	ev := obs.EventFrom(r.Context())
	ev.SetDataset(e.name + "@v" + strconv.FormatUint(version, 10))
	if ev != nil {
		ev.Dominance = e.desc.String()
	}
	return ev
}

// Engines returns the registered engines sorted by name.
func (s *Service) Engines() []*Engine {
	return s.datasets.List()
}
