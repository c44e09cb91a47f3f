package obs

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestEventLogRingWraparound(t *testing.T) {
	l := NewEventLog(4)
	for i := 0; i < 10; i++ {
		l.Record(Event{Kind: "query", ID: fmt.Sprintf("q%d", i)})
	}
	if l.Len() != 4 {
		t.Fatalf("len = %d, want 4", l.Len())
	}
	if l.Seen() != 10 || l.Kept() != 10 {
		t.Fatalf("seen=%d kept=%d", l.Seen(), l.Kept())
	}
	snap := l.Snapshot()
	var ids []string
	for _, ev := range snap {
		ids = append(ids, ev.ID)
	}
	if got := strings.Join(ids, ","); got != "q6,q7,q8,q9" {
		t.Fatalf("ring holds %s, want q6,q7,q8,q9 (oldest first)", got)
	}
}

func TestEventLogSampling(t *testing.T) {
	l := NewEventLog(100)
	l.SetSampleEvery(10)
	for i := 0; i < 40; i++ {
		l.Record(Event{Kind: "query"})
	}
	if got := l.Len(); got != 4 {
		t.Fatalf("sampled len = %d, want 4", got)
	}
	// Forced records bypass sampling — errors and slow queries must
	// never be sampled away.
	l.RecordForced(Event{Kind: "query", Error: "internal"})
	if got := l.Len(); got != 5 {
		t.Fatalf("after forced record len = %d, want 5", got)
	}
}

func TestEventLogNilSafety(t *testing.T) {
	var l *EventLog
	l.Record(Event{})
	l.RecordForced(Event{})
	l.SetSampleEvery(3)
	l.SetSink(bytes.NewBuffer(nil))
	if l.Len() != 0 || l.Snapshot() != nil || l.Seen() != 0 {
		t.Fatal("nil event log not inert")
	}
	var ev *Event
	ev.SetQuery("x")
	ev.SetResults(1)
	ev.SetError("c", "m")
	ev.SetPhase("p", time.Second)
	ev.SetAttempts(2)
	ev.SetHedged()
}

func TestEventLogNDJSONSink(t *testing.T) {
	var buf bytes.Buffer
	l := NewEventLog(2)
	l.SetSink(&buf)
	l.Record(Event{Kind: "query", ID: "a", Results: 3})
	l.Record(Event{Kind: "rpc", Parent: "a", Route: "Worker.ReduceGroup"})
	sc := bufio.NewScanner(&buf)
	var lines []Event
	for sc.Scan() {
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		lines = append(lines, ev)
	}
	if len(lines) != 2 || lines[0].ID != "a" || lines[1].Parent != "a" {
		t.Fatalf("sink lines = %+v", lines)
	}

	var out bytes.Buffer
	if err := l.WriteNDJSON(&out); err != nil {
		t.Fatal(err)
	}
	if got := len(strings.Split(strings.TrimSpace(out.String()), "\n")); got != 2 {
		t.Fatalf("WriteNDJSON lines = %d", got)
	}
}

func TestEventLogConcurrent(t *testing.T) {
	l := NewEventLog(64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				l.Record(Event{Kind: "query", ID: fmt.Sprintf("g%d-%d", g, i)})
			}
		}(g)
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if n := len(l.Snapshot()); n > 64 {
					t.Errorf("snapshot exceeds capacity: %d", n)
				}
			}
		}()
	}
	wg.Wait()
	if l.Seen() != 4000 || l.Len() != 64 {
		t.Fatalf("seen=%d len=%d", l.Seen(), l.Len())
	}
}

func TestEventLogHandler(t *testing.T) {
	l := NewEventLog(16)
	l.Record(Event{Kind: "query", ID: "q1", Route: "/query", Results: 7})
	l.Record(Event{Kind: "rpc", Parent: "q1", Route: "Worker.ReduceGroup"})
	l.Record(Event{Kind: "query", ID: "q2", Route: "/skyline"})

	get := func(url string) map[string]any {
		t.Helper()
		rec := httptest.NewRecorder()
		l.Handler().ServeHTTP(rec, httptest.NewRequest("GET", url, nil))
		if rec.Code != 200 {
			t.Fatalf("GET %s: %d", url, rec.Code)
		}
		var out map[string]any
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
			t.Fatal(err)
		}
		return out
	}

	all := get("/debug/events")
	if n := len(all["events"].([]any)); n != 3 {
		t.Fatalf("all events = %d, want 3", n)
	}
	joined := get("/debug/events?id=q1")
	evs := joined["events"].([]any)
	if len(evs) != 2 {
		t.Fatalf("id=q1 events = %d, want 2 (query + its rpc)", len(evs))
	}
	last := get("/debug/events?n=1")
	evs = last["events"].([]any)
	if len(evs) != 1 || evs[0].(map[string]any)["id"] != "q2" {
		t.Fatalf("n=1 events = %v", evs)
	}
	rpcs := get("/debug/events?kind=rpc")
	if n := len(rpcs["events"].([]any)); n != 1 {
		t.Fatalf("kind=rpc events = %d, want 1", n)
	}
}

func TestEventLogHandlerDatasetFilter(t *testing.T) {
	l := NewEventLog(16)
	l.Record(Event{Kind: "query", ID: "q1", Dataset: "hotels@v3", Cache: "hit"})
	l.Record(Event{Kind: "query", ID: "q2", Dataset: "hotels@v4"})
	l.Record(Event{Kind: "query", ID: "q3", Dataset: "cars@v1"})

	rec := httptest.NewRecorder()
	l.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/events?dataset=hotels", nil))
	var out struct {
		Events []Event `json:"events"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Events) != 2 {
		t.Fatalf("dataset=hotels events = %d, want 2", len(out.Events))
	}
	if out.Events[0].DatasetName() != "hotels" || out.Events[0].Cache != "hit" {
		t.Errorf("event = %+v", out.Events[0])
	}

	// Exact identity (name@version) also matches.
	rec = httptest.NewRecorder()
	l.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/events?dataset=hotels@v4", nil))
	out.Events = nil
	json.Unmarshal(rec.Body.Bytes(), &out)
	if len(out.Events) != 1 || out.Events[0].ID != "q2" {
		t.Fatalf("dataset=hotels@v4 events = %+v", out.Events)
	}
}

func TestRequestIDContext(t *testing.T) {
	ctx := context.Background()
	if RequestIDFrom(ctx) != "" {
		t.Fatal("empty ctx has a request id")
	}
	id := NewRequestID()
	if id == "" || id == NewRequestID() {
		t.Fatal("request ids must be non-empty and unique")
	}
	ctx = ContextWithRequestID(ctx, id)
	if RequestIDFrom(ctx) != id {
		t.Fatal("request id round trip failed")
	}

	ev := &Event{}
	ctx = ContextWithEvent(ctx, ev)
	EventFrom(ctx).SetResults(9)
	if ev.Results != 9 {
		t.Fatal("event round trip failed")
	}
	if EventFrom(context.Background()) != nil {
		t.Fatal("empty ctx has an event")
	}
}
