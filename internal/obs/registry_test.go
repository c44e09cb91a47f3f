package obs

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"

	"zskyline/internal/metrics"
)

func TestCounterGaugeHistogram(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("hits", L("route", "/q"))
	c.Add(2)
	r.Counter("hits", L("route", "/q")).Add(3)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("hits", L("route", "/other")).Value() != 0 {
		t.Fatal("label sets must be distinct series")
	}
	g := r.Gauge("temp")
	g.Set(1.5)
	if g.Value() != 1.5 {
		t.Fatalf("gauge = %v", g.Value())
	}
	h := r.Histogram("lat", []float64{1, 10})
	h.Observe(0.5)
	h.Observe(5)
	h.Observe(50)
	if h.Count() != 3 || h.Sum() != 55.5 {
		t.Fatalf("histogram count=%d sum=%v", h.Count(), h.Sum())
	}
}

func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				r.Counter("c").Add(1)
				r.Histogram("h", nil).Observe(0.01)
				// Fresh label sets force lazy series creation while the
				// exporters below iterate — the scrape-time race.
				r.Counter("lazy", L("w", strconv.Itoa(i)), L("j", strconv.Itoa(j))).Add(1)
			}
		}(i)
	}
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				if err := r.WritePrometheus(io.Discard); err != nil {
					t.Error(err)
				}
				Report(nil, r)
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("c").Value(); got != 3200 {
		t.Fatalf("counter = %d, want 3200", got)
	}
	if got := r.Histogram("h", nil).Count(); got != 3200 {
		t.Fatalf("histogram count = %d, want 3200", got)
	}
}

func TestAbsorbTally(t *testing.T) {
	r := NewRegistry()
	r.AbsorbTally(metrics.Snapshot{DominanceTests: 10, PointsPruned: 99})
	r.AbsorbTally(metrics.Snapshot{DominanceTests: 5})
	if got := r.Counter("zsky_dominance_tests_total").Value(); got != 15 {
		t.Fatalf("dominance counter = %d, want 15", got)
	}
	if got := r.Counter("zsky_points_pruned_total").Value(); got != 99 {
		t.Fatalf("points pruned counter = %d, want 99", got)
	}
}

// TestPrometheusGolden pins the full exposition output for a small
// registry: family TYPE lines, label rendering (including a value
// needing every escape the format defines — backslash, quote, and
// newline), and histogram bucket/sum/count series.
func TestPrometheusGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("zsky_http_requests_total", L("route", "/query"), L("code", "200")).Add(3)
	r.Counter("zsky_http_requests_total", L("route", "/query"), L("code", "400")).Add(1)
	r.Gauge("zsky_skyline_size").Set(42)
	h := r.Histogram("zsky_http_request_seconds", []float64{0.01, 0.1}, L("route", "/query"))
	h.Observe(0.005)
	h.Observe(0.05)
	h.Observe(0.5)
	// One label value exercising all three escapes at once: a
	// backslash, a double quote, and a real newline.
	r.Counter("zsky_errors_total", L("msg", "path\\to \"file\"\nline2")).Add(1)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `# TYPE zsky_errors_total counter
zsky_errors_total{msg="path\\to \"file\"\nline2"} 1
# TYPE zsky_http_request_seconds histogram
zsky_http_request_seconds_bucket{route="/query",le="0.01"} 1
zsky_http_request_seconds_bucket{route="/query",le="0.1"} 2
zsky_http_request_seconds_bucket{route="/query",le="+Inf"} 3
zsky_http_request_seconds_sum{route="/query"} 0.555
zsky_http_request_seconds_count{route="/query"} 3
# TYPE zsky_http_requests_total counter
zsky_http_requests_total{code="200",route="/query"} 3
zsky_http_requests_total{code="400",route="/query"} 1
# TYPE zsky_skyline_size gauge
zsky_skyline_size 42
`
	if got := b.String(); got != want {
		t.Fatalf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestEscapeLabel pins the three exposition escapes and that nothing
// else is touched (tabs and unicode pass through raw — Go-style %q
// escaping of them is a Prometheus parse error).
func TestEscapeLabel(t *testing.T) {
	for in, want := range map[string]string{
		`plain`:    `plain`,
		`a\b`:      `a\\b`,
		`a"b`:      `a\"b`,
		"a\nb":     `a\nb`,
		"\\\"\n":   `\\\"\n`,
		"tab\tüñî": "tab\tüñî",
	} {
		if got := escapeLabel(in); got != want {
			t.Errorf("escapeLabel(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestMetricsEndpoint(t *testing.T) {
	r := NewRegistry()
	r.Counter("zsky_http_requests_total", L("route", "/hello"), L("code", "418")).Add(2)

	rec := httptest.NewRecorder()
	r.PrometheusHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	body := rec.Body.String()
	if !strings.Contains(body, `zsky_http_requests_total{code="418",route="/hello"} 2`) {
		t.Fatalf("metrics body missing request counter:\n%s", body)
	}
	if !strings.Contains(rec.Header().Get("Content-Type"), "text/plain") {
		t.Fatalf("content type = %q", rec.Header().Get("Content-Type"))
	}
}

func TestServeMetrics(t *testing.T) {
	r := NewRegistry()
	r.Counter("zsky_test_total").Add(1)
	addr, stop, err := ServeMetrics("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	buf := make([]byte, 1<<16)
	n, _ := resp.Body.Read(buf)
	if !strings.Contains(string(buf[:n]), "zsky_test_total 1") {
		t.Fatalf("metrics body = %q", string(buf[:n]))
	}
}
