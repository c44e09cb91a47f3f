// Package obs is the engine's observability layer: named, nested
// phase spans (a lightweight tracer), a counter/gauge/histogram
// registry, and two exporters — a human-readable per-run trace report
// and Prometheus text exposition. Every executor (the shared-memory
// pool core and parallel run on, and dist's TCP coordinator/workers)
// emits the same span taxonomy
//
//	learn  ->  map  ->  local-skyline  ->  merge/round-1
//
// so a figure-style experiment is reproducible from one trace artifact
// regardless of where it ran.
//
// Everything here follows metrics.Tally's nil-safety convention: a nil
// *Trace, *Span, or *Registry is valid everywhere and records nothing,
// so instrumented hot paths stay branch-cheap when tracing is off.
package obs

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// Attr is one key/value annotation on a span.
type Attr struct {
	Key   string
	Value string
}

// Span is one named, timed region of a run. Spans nest: children are
// created with Child, started now. A Span is safe for concurrent use —
// parallel tasks may attach children and attributes to the same parent.
type Span struct {
	name  string
	start time.Time

	mu       sync.Mutex
	dur      time.Duration
	ended    bool
	attrs    []Attr
	children []*Span
}

// Name returns the span's name.
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// Start returns when the span began.
func (s *Span) Start() time.Time {
	if s == nil {
		return time.Time{}
	}
	return s.start
}

// Duration returns the span's recorded duration (elapsed-so-far if the
// span has not ended).
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.ended {
		return time.Since(s.start)
	}
	return s.dur
}

// End closes the span, fixing its duration. Ending twice is a no-op.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if !s.ended {
		s.ended = true
		s.dur = time.Since(s.start)
	}
	s.mu.Unlock()
}

// SetAttr annotates the span. Values are rendered with %v; durations
// are rounded for readability.
func (s *Span) SetAttr(key string, value any) {
	if s == nil {
		return
	}
	var v string
	switch x := value.(type) {
	case time.Duration:
		v = x.Round(time.Microsecond).String()
	case string:
		v = x
	default:
		v = fmt.Sprintf("%v", value)
	}
	s.mu.Lock()
	for i := range s.attrs {
		if s.attrs[i].Key == key {
			s.attrs[i].Value = v
			s.mu.Unlock()
			return
		}
	}
	s.attrs = append(s.attrs, Attr{Key: key, Value: v})
	s.mu.Unlock()
}

// Attrs returns a copy of the span's attributes in set order.
func (s *Span) Attrs() []Attr {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Attr(nil), s.attrs...)
}

// Child starts a nested span now.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	c := &Span{name: name, start: time.Now()}
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

// Children returns a copy of the span's children ordered by start
// time, so reports read chronologically even when parallel tasks
// appended out of order.
func (s *Span) Children() []*Span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	out := append([]*Span(nil), s.children...)
	s.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool { return out[i].start.Before(out[j].start) })
	return out
}

// Trace is one run's span tree. The root span covers the whole run;
// phases hang off it.
type Trace struct {
	root *Span
}

// NewTrace starts a trace whose root span begins now.
func NewTrace(name string) *Trace {
	return &Trace{root: &Span{name: name, start: time.Now()}}
}

// Root returns the trace's root span (nil for a nil trace).
func (t *Trace) Root() *Span {
	if t == nil {
		return nil
	}
	return t.root
}

// Finish ends the root span.
func (t *Trace) Finish() { t.Root().End() }
