package obs

import (
	"context"
	"strings"
	"sync"
	"testing"

	"zskyline/internal/metrics"
)

func TestSpanNesting(t *testing.T) {
	tr := NewTrace("run")
	learn := tr.Root().Child("learn")
	learn.SetAttr("sample", 100)
	learn.End()
	m := tr.Root().Child("map")
	m.Child("rpc").End()
	m.End()
	tr.Finish()

	kids := tr.Root().Children()
	if len(kids) != 2 {
		t.Fatalf("root children = %d, want 2", len(kids))
	}
	if kids[0].Name() != "learn" || kids[1].Name() != "map" {
		t.Fatalf("children = %q, %q", kids[0].Name(), kids[1].Name())
	}
	if got := kids[0].Attrs(); len(got) != 1 || got[0].Key != "sample" || got[0].Value != "100" {
		t.Fatalf("learn attrs = %v", got)
	}
	if sub := kids[1].Children(); len(sub) != 1 || sub[0].Name() != "rpc" {
		t.Fatalf("map children = %v", sub)
	}
}

func TestSpanSetAttrOverwrites(t *testing.T) {
	sp := NewTrace("t").Root()
	sp.SetAttr("k", 1)
	sp.SetAttr("k", 2)
	if attrs := sp.Attrs(); len(attrs) != 1 || attrs[0].Value != "2" {
		t.Fatalf("attrs = %v, want single k=2", attrs)
	}
}

// TestSpanConcurrency hammers one parent from many goroutines; run
// with -race to check the locking.
func TestSpanConcurrency(t *testing.T) {
	tr := NewTrace("run")
	parent := tr.Root().Child("map")
	var wg sync.WaitGroup
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := parent.Child("task")
			c.SetAttr("i", i)
			c.End()
			parent.SetAttr("last", i)
			_ = parent.Children()
			_ = c.Duration()
		}(i)
	}
	wg.Wait()
	parent.End()
	if got := len(parent.Children()); got != 64 {
		t.Fatalf("children = %d, want 64", got)
	}
}

func TestNilSafety(t *testing.T) {
	var tr *Trace
	var sp *Span
	var reg *Registry
	// None of these may panic.
	tr.Finish()
	sp = tr.Root().Child("x")
	sp.SetAttr("k", "v")
	sp.End()
	_ = sp.Children()
	_ = sp.Attrs()
	_ = sp.Name()
	_ = sp.Duration()
	reg.Counter("c").Add(1)
	reg.Gauge("g").Set(1)
	reg.Histogram("h", nil).Observe(1)
	reg.AbsorbTally(metrics.Snapshot{})
}

func TestContextHelpers(t *testing.T) {
	ctx := context.Background()
	if sp, _ := StartSpan(ctx, "x"); sp != nil {
		t.Fatal("StartSpan without a trace must return nil")
	}
	tr := NewTrace("run")
	ctx = ContextWithTrace(ctx, tr)
	if SpanFrom(ctx) != tr.Root() {
		t.Fatal("ContextWithTrace did not make the root the current span")
	}
	sp, ctx2 := StartSpan(ctx, "learn")
	if sp == nil || SpanFrom(ctx2) != sp {
		t.Fatal("StartSpan did not set the current span")
	}
	sp.End()
	if kids := tr.Root().Children(); len(kids) != 1 || kids[0] != sp {
		t.Fatalf("root children = %v", kids)
	}
}

func TestReportRendersTreeAndCounters(t *testing.T) {
	tr := NewTrace("pipeline")
	l := tr.Root().Child("learn")
	l.SetAttr("sample", 20)
	l.End()
	tr.Root().Child("map").End()
	tr.Finish()
	reg := NewRegistry()
	reg.Counter("zsky_dominance_tests_total").Add(7)

	out := Report(tr, reg)
	for _, want := range []string{"TRACE pipeline", "learn", "map", "sample=20",
		"COUNTERS", "zsky_dominance_tests_total", "7"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
}

func TestReportElidesLongChildLists(t *testing.T) {
	tr := NewTrace("run")
	for i := 0; i < maxReportChildren+10; i++ {
		tr.Root().Child("task").End()
	}
	tr.Finish()
	out := Report(tr, nil)
	if !strings.Contains(out, "+10 more spans") {
		t.Fatalf("report did not elide:\n%s", out)
	}
}
