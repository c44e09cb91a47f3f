package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"zskyline/internal/metrics"
)

// Label is one Prometheus-style label pair.
type Label struct {
	Key   string
	Value string
}

// L is shorthand for building a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Counter is a monotonically increasing value.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter. Nil-safe.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a value that can go up and down.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores the gauge value. Nil-safe.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram counts observations into cumulative buckets, Prometheus
// style.
type Histogram struct {
	mu      sync.Mutex
	bounds  []float64 // upper bounds, ascending; +Inf is implicit
	counts  []int64   // len(bounds)+1; last is the +Inf bucket
	sum     float64
	observd int64
}

// Observe records one value. Nil-safe.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i]++
	h.sum += v
	h.observd++
	h.mu.Unlock()
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.observd
}

// Sum returns the sum of observations.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// DurationBuckets are the default latency histogram bounds in seconds.
var DurationBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
	0.25, 0.5, 1, 2.5, 5, 10,
}

// series is one (name, labels) instrument in a family.
type series struct {
	labels string // rendered `k="v",...`, sorted by key; "" when unlabeled
	c      *Counter
	g      *Gauge
	h      *Histogram
	l      *LatencyHistogram
}

// family groups all series of one metric name under one TYPE.
type family struct {
	name   string
	kind   string // "counter" | "gauge" | "histogram"
	order  []string
	series map[string]*series
}

// Registry holds named counters, gauges, and histograms and renders
// them as Prometheus text exposition. The zero value is not usable —
// call NewRegistry — but a nil *Registry is valid everywhere and
// records nothing, like a nil *Trace.
type Registry struct {
	mu  sync.Mutex
	fam map[string]*family
	ord []string
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{fam: map[string]*family{}}
}

// renderLabels builds the canonical sorted label string.
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	return b.String()
}

// escapeLabel escapes a label value per the exposition format: exactly
// backslash, double quote, and newline — nothing else. (Go's %q is not
// equivalent: it escapes tabs and non-printables into sequences the
// Prometheus parser rejects, and combined with a pre-pass it
// double-escaped newlines into a literal backslash-n.)
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// lookup finds or creates the series for (name, labels), checking the
// family kind.
func (r *Registry) lookup(name, kind string, labels []Label) *series {
	f := r.fam[name]
	if f == nil {
		f = &family{name: name, kind: kind, series: map[string]*series{}}
		r.fam[name] = f
		r.ord = append(r.ord, name)
	}
	if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q registered as %s, requested as %s", name, f.kind, kind))
	}
	ls := renderLabels(labels)
	s := f.series[ls]
	if s == nil {
		s = &series{labels: ls}
		f.series[ls] = s
		f.order = append(f.order, ls)
	}
	return s
}

// Counter returns the counter for (name, labels), creating it on first
// use. A nil registry returns a nil (no-op) counter.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.lookup(name, "counter", labels)
	if s.c == nil {
		s.c = &Counter{}
	}
	return s.c
}

// Gauge returns the gauge for (name, labels), creating it on first
// use. A nil registry returns a nil (no-op) gauge.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.lookup(name, "gauge", labels)
	if s.g == nil {
		s.g = &Gauge{}
	}
	return s.g
}

// Histogram returns the histogram for (name, labels), creating it with
// the given bucket bounds on first use (nil selects DurationBuckets).
// A nil registry returns a nil (no-op) histogram.
func (r *Registry) Histogram(name string, buckets []float64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	if buckets == nil {
		buckets = DurationBuckets
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.lookup(name, "histogram", labels)
	if s.h == nil {
		s.h = &Histogram{bounds: buckets, counts: make([]int64, len(buckets)+1)}
	}
	return s.h
}

// Latency returns the log-scale latency histogram for (name, labels),
// creating it on first use. It renders as a Prometheus summary —
// quantile series (0.5, 0.9, 0.99) plus _sum and _count — and the
// trace report prints its p50/p90/p99/max snapshot. A nil registry
// returns a nil (no-op) histogram.
func (r *Registry) Latency(name string, labels ...Label) *LatencyHistogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.lookup(name, "summary", labels)
	if s.l == nil {
		s.l = NewLatencyHistogram()
	}
	return s.l
}

// AbsorbTally adds a metrics.Tally snapshot into the pipeline
// counters. Pass a per-run snapshot (or delta) exactly once; values
// accumulate.
func (r *Registry) AbsorbTally(s metrics.Snapshot) {
	if r == nil {
		return
	}
	r.Counter("zsky_dominance_tests_total").Add(s.DominanceTests)
	r.Counter("zsky_region_tests_total").Add(s.RegionTests)
	r.Counter("zsky_points_pruned_total").Add(s.PointsPruned)
}

// famView is a point-in-time copy of one family's structure, taken
// under the registry lock so exporters never touch the live maps and
// slices that Counter/Gauge/Histogram mutate. The series pointers are
// safe to read afterwards: counter and gauge values are atomics, and
// histograms carry their own mutex.
type famView struct {
	name   string
	kind   string
	series []*series
}

// snapshot copies every family's name, kind, and ordered series
// pointers while holding r.mu, families sorted by name.
func (r *Registry) snapshot() []famView {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := append([]string(nil), r.ord...)
	sort.Strings(names)
	out := make([]famView, len(names))
	for i, n := range names {
		f := r.fam[n]
		ss := make([]*series, len(f.order))
		for j, ls := range f.order {
			ss[j] = f.series[ls]
		}
		out[i] = famView{name: f.name, kind: f.kind, series: ss}
	}
	return out
}

// formatFloat renders a sample value the way Prometheus clients do.
func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// WritePrometheus renders every registered metric in the Prometheus
// text exposition format, families sorted by name, series in
// registration order.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	for _, f := range r.snapshot() {
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.kind); err != nil {
			return err
		}
		for _, s := range f.series {
			if err := writeSeries(w, f, s); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeSeries(w io.Writer, f famView, s *series) error {
	suffix := func(extra string) string {
		if s.labels == "" && extra == "" {
			return ""
		}
		l := s.labels
		if extra != "" {
			if l != "" {
				l += ","
			}
			l += extra
		}
		return "{" + l + "}"
	}
	switch f.kind {
	case "counter":
		_, err := fmt.Fprintf(w, "%s%s %d\n", f.name, suffix(""), s.c.Value())
		return err
	case "gauge":
		_, err := fmt.Fprintf(w, "%s%s %s\n", f.name, suffix(""), formatFloat(s.g.Value()))
		return err
	case "histogram":
		h := s.h
		h.mu.Lock()
		bounds := h.bounds
		counts := append([]int64(nil), h.counts...)
		sum, n := h.sum, h.observd
		h.mu.Unlock()
		var cum int64
		for i, b := range bounds {
			cum += counts[i]
			le := fmt.Sprintf("le=%q", formatFloat(b))
			if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, suffix(le), cum); err != nil {
				return err
			}
		}
		cum += counts[len(bounds)]
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, suffix(`le="+Inf"`), cum); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", f.name, suffix(""), formatFloat(sum)); err != nil {
			return err
		}
		_, err := fmt.Fprintf(w, "%s_count%s %d\n", f.name, suffix(""), n)
		return err
	case "summary":
		snap := s.l.Snapshot()
		for _, q := range [...]struct {
			q string
			v time.Duration
		}{{"0.5", snap.P50}, {"0.9", snap.P90}, {"0.99", snap.P99}} {
			qs := fmt.Sprintf("quantile=%q", q.q)
			if _, err := fmt.Fprintf(w, "%s%s %s\n", f.name, suffix(qs), formatFloat(q.v.Seconds())); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", f.name, suffix(""), formatFloat(s.l.sumSeconds())); err != nil {
			return err
		}
		_, err := fmt.Fprintf(w, "%s_count%s %d\n", f.name, suffix(""), snap.Count)
		return err
	}
	return nil
}
