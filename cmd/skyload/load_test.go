package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"zskyline/internal/gen"
	"zskyline/internal/point"
	"zskyline/internal/server"
)

func startTarget(t *testing.T) (*server.Service, *httptest.Server) {
	t.Helper()
	ds := gen.Synthetic(gen.AntiCorrelated, 800, 3, 7)
	mins, maxs, err := ds.Bounds()
	if err != nil {
		t.Fatal(err)
	}
	s := server.NewService(server.Config{Bits: 12})
	e, err := s.CreateDataset(server.DatasetSpec{Name: server.DefaultDataset,
		Attrs: []string{"price", "distance", "noise"}, Bits: 12, Mins: mins, Maxs: maxs})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Ingest(e, point.BlockOf(ds.Dims, ds.Points)); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func TestClosedLoop(t *testing.T) {
	s, ts := startTarget(t)
	cfg := LoadConfig{Addr: ts.URL, Clients: 4, N: 200, Mix: "mixed", Seed: 1, Timeout: 5 * time.Second}
	res, err := runLoad(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Total != 200 || res.Errors != 0 {
		t.Fatalf("total=%d errors=%d, want 200/0", res.Total, res.Errors)
	}
	if len(res.Routes) != 2 {
		t.Fatalf("routes = %+v, want /skyline and /query", res.Routes)
	}
	for _, rs := range res.Routes {
		if rs.Count == 0 || rs.Lat.Count != rs.Count {
			t.Errorf("%s: count=%d lat.count=%d", rs.Route, rs.Count, rs.Lat.Count)
		}
		if rs.Lat.P50 <= 0 || rs.Lat.P99 < rs.Lat.P50 || rs.Lat.Max < rs.Lat.P99 {
			t.Errorf("%s: implausible quantiles %+v", rs.Route, rs.Lat)
		}
	}
	if res.QPS <= 0 {
		t.Errorf("qps = %v", res.QPS)
	}
	// The server side saw every query as an event.
	if got := s.Events().Seen(); got < 200 {
		t.Errorf("server event log saw %d, want >= 200", got)
	}
}

func TestOpenLoopMeasuresFromArrival(t *testing.T) {
	// A server that stalls every request: open-loop latency must
	// include the queueing delay behind the stalls, so with arrivals
	// far faster than service, tail latency >> service time.
	const stall = 20 * time.Millisecond
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		json.NewEncoder(w).Encode(map[string]any{"attrs": []string{"a", "b"}})
	})
	mux.HandleFunc("/skyline", func(w http.ResponseWriter, _ *http.Request) {
		time.Sleep(stall)
		w.Write([]byte(`{}`))
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	// 1 client, service time 20ms, offered 500 qps: job i queues
	// behind i stalls, so p99 must far exceed one service time.
	cfg := LoadConfig{Addr: ts.URL, Clients: 1, N: 20, Rate: 500, Mix: "skyline", Seed: 1, Timeout: 5 * time.Second}
	res, err := runLoad(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Total != 20 || res.Errors != 0 {
		t.Fatalf("total=%d errors=%d", res.Total, res.Errors)
	}
	if p99 := res.Routes[0].Lat.P99; p99 < 3*stall {
		t.Errorf("open-loop p99 = %v, want >> %v (queueing delay must count)", p99, stall)
	}
}

// TestChurnMixAgainstNamedDataset drives the ingest+query workload at
// a named dataset: ingests land (version moves), queries keep
// answering, and the run distinguishes rejections from errors.
func TestChurnMixAgainstNamedDataset(t *testing.T) {
	svc := server.NewService(server.Config{Bits: 10})
	e, err := svc.CreateDataset(server.DatasetSpec{Name: "hot", Attrs: []string{"x", "y"}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	cfg := LoadConfig{
		Addr: ts.URL, Dataset: "hot", Clients: 4, N: 120, Mix: "churn",
		IngestEvery: 6, IngestBatch: 4, Seed: 2, Timeout: 5 * time.Second,
	}
	res, err := runLoad(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Total != 120 || res.Errors != 0 {
		t.Fatalf("total=%d errors=%d, want 120/0", res.Total, res.Errors)
	}
	var sawIngest bool
	for _, rs := range res.Routes {
		if rs.Route == "/ingest" {
			sawIngest = true
			if rs.Count != 20 {
				t.Errorf("ingest count = %d, want 120/6", rs.Count)
			}
		}
	}
	if !sawIngest {
		t.Fatal("churn mix issued no ingests")
	}
	if e.Version() != 20 {
		t.Errorf("dataset version = %d after 20 ingests", e.Version())
	}

	// churn needs a named dataset.
	if _, err := runLoad(LoadConfig{Addr: ts.URL, N: 1, Mix: "churn"}); err == nil {
		t.Error("churn without -dataset accepted")
	}
}

func TestBuildJobsMixAndSchedule(t *testing.T) {
	start := time.Now()
	jobs, err := buildJobs(LoadConfig{N: 10, Mix: "mixed", Rate: 100, Seed: 7}, []string{"x", "y"}, start)
	if err != nil {
		t.Fatal(err)
	}
	for i, j := range jobs {
		wantRoute := "/skyline"
		if i%2 == 1 {
			wantRoute = "/query"
		}
		if j.route != wantRoute {
			t.Errorf("job %d route = %s, want %s", i, j.route, wantRoute)
		}
		if want := start.Add(time.Duration(i) * 10 * time.Millisecond); !j.arrival.Equal(want) {
			t.Errorf("job %d arrival = %v, want %v", i, j.arrival.Sub(start), want.Sub(start))
		}
		if j.route == "/query" {
			var body struct {
				Prefer []map[string]string `json:"prefer"`
			}
			if err := json.Unmarshal(j.body, &body); err != nil || len(body.Prefer) == 0 {
				t.Errorf("job %d bad body %s: %v", i, j.body, err)
			}
		}
	}
	if _, err := buildJobs(LoadConfig{N: 1, Mix: "nope"}, []string{"x"}, start); err == nil {
		t.Error("unknown mix accepted")
	}
}

func TestReportAndTable(t *testing.T) {
	_, ts := startTarget(t)
	cfg := LoadConfig{Addr: ts.URL, Clients: 2, N: 50, Mix: "query", Seed: 3, Timeout: 5 * time.Second}
	res, err := runLoad(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep := buildReport(cfg, "t1", res)
	if rep.Tag != "t1" || rep.QPS <= 0 || len(rep.Routes) != 1 || rep.Routes[0].Route != "/query" {
		t.Fatalf("report = %+v", rep)
	}
	if rep.Routes[0].P50MS <= 0 || rep.Routes[0].P99MS < rep.Routes[0].P50MS {
		t.Errorf("report quantiles = %+v", rep.Routes[0])
	}
	var b bytes.Buffer
	writeTable(&b, res)
	out := b.String()
	if !strings.Contains(out, "/query") || !strings.Contains(out, "p99") || !strings.Contains(out, "50 queries") {
		t.Errorf("table output:\n%s", out)
	}
}
