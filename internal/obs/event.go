package obs

import (
	"context"
	cryptorand "crypto/rand"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Event is one structured observability record: a served query (HTTP
// request or coordinator run) or one RPC issued on a query's behalf.
// RPC events carry the owning query's ID in Parent, so a query and
// every wire call it caused join on one key. All fields are plain JSON
// so events survive NDJSON sinks and the /debug/events endpoint
// unchanged.
type Event struct {
	Time time.Time `json:"time"`
	// ID is the request/query ID (also returned in X-Request-Id).
	ID string `json:"id,omitempty"`
	// Parent is the owning query's ID on "rpc" events.
	Parent string `json:"parent,omitempty"`
	// Kind is "query" or "rpc".
	Kind string `json:"kind"`
	// Route is the HTTP route or RPC method.
	Route string `json:"route,omitempty"`
	// Query is the query shape (preference list, k, subspace, ...).
	Query string `json:"query,omitempty"`
	// Dominance is the dominance descriptor in text form.
	Dominance string `json:"dominance,omitempty"`
	// Dataset identifies the dataset (and its version, as
	// "name@vN") the query ran against.
	Dataset string `json:"dataset,omitempty"`
	// Cache is "hit" or "miss" on routes served through the result
	// cache, and "cached", "folded" or "computed" on Worker.ShardSkyline
	// rpc events (how the replica produced the shard skyline); empty
	// elsewhere.
	Cache string `json:"cache,omitempty"`
	// Status is the HTTP status code (query events from the server).
	Status int `json:"status,omitempty"`
	// Error is the error class ("bad-request", "internal", "retryable",
	// "fatal", ...); empty on success.
	Error string `json:"error,omitempty"`
	// Message carries the error text when Error is set.
	Message string `json:"message,omitempty"`

	DurationMS float64 `json:"duration_ms"`
	// Phases maps phase-span names to wall milliseconds.
	Phases map[string]float64 `json:"phases,omitempty"`

	// RPC-side detail: serving worker, attempt count (>1 after
	// retries/failover), whether a hedge leg was launched.
	Worker   string `json:"worker,omitempty"`
	Attempts int    `json:"attempts,omitempty"`
	Hedged   bool   `json:"hedged,omitempty"`

	WireSentBytes int64 `json:"wire_sent_bytes,omitempty"`
	WireRecvBytes int64 `json:"wire_recv_bytes,omitempty"`
	// Results is the result size (skyline/query rows returned).
	Results int `json:"results,omitempty"`
	// Trace holds a rendered trace report, promoted onto the event when
	// the query crossed the slow threshold.
	Trace string `json:"trace,omitempty"`
}

// SetQuery records the query shape. Nil-safe, like span setters.
func (e *Event) SetQuery(shape string) {
	if e != nil {
		e.Query = shape
	}
}

// SetResults records the result size. Nil-safe.
func (e *Event) SetResults(n int) {
	if e != nil {
		e.Results = n
	}
}

// SetError records an error class and message. Nil-safe.
func (e *Event) SetError(class, msg string) {
	if e != nil {
		e.Error = class
		e.Message = msg
	}
}

// SetCache records whether the result cache served the query. Nil-safe.
func (e *Event) SetCache(outcome string) {
	if e != nil {
		e.Cache = outcome
	}
}

// SetDataset records the dataset identity ("name@vN"). Nil-safe.
func (e *Event) SetDataset(ds string) {
	if e != nil {
		e.Dataset = ds
	}
}

// DatasetName returns the name part of the event's dataset identity,
// stripping the "@vN" version suffix.
func (e *Event) DatasetName() string {
	if e == nil {
		return ""
	}
	if i := strings.IndexByte(e.Dataset, '@'); i >= 0 {
		return e.Dataset[:i]
	}
	return e.Dataset
}

// SetPhase records one phase's wall clock. Nil-safe.
func (e *Event) SetPhase(name string, d time.Duration) {
	if e == nil {
		return
	}
	if e.Phases == nil {
		e.Phases = map[string]float64{}
	}
	e.Phases[name] = float64(d.Microseconds()) / 1000
}

// SetAttempts records the attempt count. Nil-safe.
func (e *Event) SetAttempts(n int) {
	if e != nil {
		e.Attempts = n
	}
}

// SetHedged marks that a hedge leg was launched. Nil-safe.
func (e *Event) SetHedged() {
	if e != nil {
		e.Hedged = true
	}
}

// SetWire records the exact on-wire request and response frame sizes
// of the serving attempt. Nil-safe.
func (e *Event) SetWire(sent, recv int64) {
	if e != nil {
		e.WireSentBytes = sent
		e.WireRecvBytes = recv
	}
}

// EventLog is a bounded, concurrency-safe ring of Events with optional
// 1-in-N sampling and an optional NDJSON sink. The ring keeps the most
// recent records for /debug/events; the sink, when set, receives every
// recorded event as one JSON line. A nil *EventLog is valid everywhere
// and records nothing.
type EventLog struct {
	mu    sync.Mutex
	buf   []Event
	next  int    // next write position
	size  int    // occupied entries, <= len(buf)
	seen  uint64 // events offered to Record (pre-sampling)
	kept  uint64 // events actually recorded
	every int    // keep 1 in every; <=1 keeps all
	sink  io.Writer
}

// DefaultEventLogSize is the ring capacity NewEventLog(0) selects.
const DefaultEventLogSize = 1024

// NewEventLog builds a ring holding the last capacity events
// (DefaultEventLogSize when capacity <= 0).
func NewEventLog(capacity int) *EventLog {
	if capacity <= 0 {
		capacity = DefaultEventLogSize
	}
	return &EventLog{buf: make([]Event, capacity), every: 1}
}

// SetSampleEvery keeps one in every n events offered to Record
// (RecordForced always records). n <= 1 keeps everything. Nil-safe.
func (l *EventLog) SetSampleEvery(n int) {
	if l == nil {
		return
	}
	l.mu.Lock()
	if n < 1 {
		n = 1
	}
	l.every = n
	l.mu.Unlock()
}

// SetSink streams every recorded event to w as NDJSON (one JSON object
// per line), in record order, serialized under the log's lock.
// Nil-safe.
func (l *EventLog) SetSink(w io.Writer) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.sink = w
	l.mu.Unlock()
}

// Record offers one event, subject to sampling. A zero Time is stamped
// now. Nil-safe.
func (l *EventLog) Record(ev Event) { l.record(ev, false) }

// RecordForced records one event regardless of the sampling rate — for
// errors and slow queries, which must never be sampled away. Nil-safe.
func (l *EventLog) RecordForced(ev Event) { l.record(ev, true) }

func (l *EventLog) record(ev Event, forced bool) {
	if l == nil {
		return
	}
	if ev.Time.IsZero() {
		ev.Time = time.Now()
	}
	l.mu.Lock()
	l.seen++
	if !forced && l.every > 1 && l.seen%uint64(l.every) != 0 {
		l.mu.Unlock()
		return
	}
	l.kept++
	l.buf[l.next] = ev
	l.next = (l.next + 1) % len(l.buf)
	if l.size < len(l.buf) {
		l.size++
	}
	sink := l.sink
	if sink != nil {
		// Encode inside the lock so sink lines never interleave.
		if blob, err := json.Marshal(ev); err == nil {
			sink.Write(append(blob, '\n'))
		}
	}
	l.mu.Unlock()
}

// Len returns the number of events currently held.
func (l *EventLog) Len() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.size
}

// Seen returns how many events were offered; Kept how many were
// recorded (post-sampling, including forced records).
func (l *EventLog) Seen() uint64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seen
}

// Kept returns the number of events recorded into the ring.
func (l *EventLog) Kept() uint64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.kept
}

// Snapshot copies the held events, oldest first.
func (l *EventLog) Snapshot() []Event {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Event, 0, l.size)
	start := l.next - l.size
	for i := 0; i < l.size; i++ {
		out = append(out, l.buf[(start+i+len(l.buf))%len(l.buf)])
	}
	return out
}

// WriteNDJSON writes the held events to w, one JSON object per line,
// oldest first.
func (l *EventLog) WriteNDJSON(w io.Writer) error {
	for _, ev := range l.Snapshot() {
		blob, err := json.Marshal(ev)
		if err != nil {
			return err
		}
		if _, err := w.Write(append(blob, '\n')); err != nil {
			return err
		}
	}
	return nil
}

// Handler serves the event log as JSON — mount it at GET /debug/events.
// Query parameters: ?n=K returns only the most recent K events; ?id=X
// returns events whose ID or Parent equals X (the per-query join);
// ?kind=query|rpc filters by kind; ?dataset=name filters by dataset
// (matching either the exact identity or its name part, so "hotels"
// finds "hotels@v3").
func (l *EventLog) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		events := l.Snapshot()
		if id := r.URL.Query().Get("id"); id != "" {
			filtered := events[:0]
			for _, ev := range events {
				if ev.ID == id || ev.Parent == id {
					filtered = append(filtered, ev)
				}
			}
			events = filtered
		}
		if kind := r.URL.Query().Get("kind"); kind != "" {
			filtered := events[:0]
			for _, ev := range events {
				if ev.Kind == kind {
					filtered = append(filtered, ev)
				}
			}
			events = filtered
		}
		if ds := r.URL.Query().Get("dataset"); ds != "" {
			filtered := events[:0]
			for _, ev := range events {
				if ev.Dataset == ds || ev.DatasetName() == ds {
					filtered = append(filtered, ev)
				}
			}
			events = filtered
		}
		if ns := r.URL.Query().Get("n"); ns != "" {
			if n, err := strconv.Atoi(ns); err == nil && n >= 0 && n < len(events) {
				events = events[len(events)-n:]
			}
		}
		if events == nil {
			events = []Event{}
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]any{
			"seen":   l.Seen(),
			"kept":   l.Kept(),
			"events": events,
		})
	})
}

// ---- request IDs ----

// reqSalt makes request IDs unique across processes; reqCounter across
// requests in this one.
var (
	reqSalt    = func() uint64 { var b [8]byte; cryptorand.Read(b[:]); return binary.LittleEndian.Uint64(b[:]) }()
	reqCounter atomic.Uint64
)

// NewRequestID returns a short, process-unique request ID.
func NewRequestID() string {
	return fmt.Sprintf("%08x%06x", uint32(reqSalt), reqCounter.Add(1)&0xffffff)
}

type requestIDKey struct{}

// ContextWithRequestID attaches a request/query ID to ctx; downstream
// layers (plan spans, dist RPC events) pick it up to join their
// records to the owning query.
func ContextWithRequestID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, requestIDKey{}, id)
}

// RequestIDFrom returns ctx's request ID, or "".
func RequestIDFrom(ctx context.Context) string {
	id, _ := ctx.Value(requestIDKey{}).(string)
	return id
}

type eventKey struct{}

// ContextWithEvent attaches a mutable per-query Event to ctx so
// handlers deeper in the call chain can annotate it (query shape,
// result size, phases) through the nil-safe setters.
func ContextWithEvent(ctx context.Context, ev *Event) context.Context {
	return context.WithValue(ctx, eventKey{}, ev)
}

// EventFrom returns ctx's current event, or nil (safe to use: every
// Event setter tolerates nil).
func EventFrom(ctx context.Context) *Event {
	ev, _ := ctx.Value(eventKey{}).(*Event)
	return ev
}
