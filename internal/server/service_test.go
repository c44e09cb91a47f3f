package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"zskyline/internal/point"
	"zskyline/internal/seq"
)

func newTestService(t *testing.T, cfg Config) (*Service, *httptest.Server) {
	t.Helper()
	s := NewService(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func mustCreate(t *testing.T, url string, spec DatasetSpec) {
	t.Helper()
	b, _ := json.Marshal(spec)
	resp, err := http.Post(url+"/datasets", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("create %s: %d %s", spec.Name, resp.StatusCode, body)
	}
}

func mustIngest(t *testing.T, url, name string, pts [][]float64) map[string]any {
	t.Helper()
	b, _ := json.Marshal(map[string]any{"points": pts})
	resp, err := http.Post(url+"/datasets/"+name+"/ingest", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	json.NewDecoder(resp.Body).Decode(&out)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest into %s: %d %v", name, resp.StatusCode, out)
	}
	return out
}

func getJSON(t *testing.T, url string) (*http.Response, map[string]any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	var out map[string]any
	json.NewDecoder(resp.Body).Decode(&out)
	return resp, out
}

// TestMultiTenantLifecycle drives two concurrently served datasets
// with different dominance relations through create, ingest, query,
// list, and delete.
func TestMultiTenantLifecycle(t *testing.T) {
	_, ts := newTestService(t, Config{Bits: 10})
	mustCreate(t, ts.URL, DatasetSpec{Name: "hotels", Attrs: []string{"price", "distance"}})
	mustCreate(t, ts.URL, DatasetSpec{
		Name: "cars", Attrs: []string{"cost", "age"}, Dominance: "robust:0.2",
	})

	mustIngest(t, ts.URL, "hotels", [][]float64{{0.2, 0.8}, {0.8, 0.2}, {0.9, 0.9}})
	mustIngest(t, ts.URL, "cars", [][]float64{{0.5, 0.5}, {0.52, 0.51}, {0.1, 0.9}})

	// Each dataset answers from its own engine and relation.
	resp, sky := getJSON(t, ts.URL+"/datasets/hotels/skyline")
	if resp.StatusCode != 200 || int(sky["count"].(float64)) != 2 {
		t.Fatalf("hotels skyline = %v", sky)
	}
	resp, health := getJSON(t, ts.URL+"/datasets/cars/healthz")
	if resp.StatusCode != 200 || health["dominance"] != "robust:0.2" {
		t.Fatalf("cars healthz = %v", health)
	}

	resp, list := getJSON(t, ts.URL+"/datasets")
	if resp.StatusCode != 200 || int(list["count"].(float64)) != 2 {
		t.Fatalf("list = %v", list)
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/datasets/cars", nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, dresp.Body)
	dresp.Body.Close()
	if dresp.StatusCode != 200 {
		t.Fatalf("delete: %d", dresp.StatusCode)
	}
	resp, _ = getJSON(t, ts.URL+"/datasets/cars/healthz")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("deleted dataset still served: %d", resp.StatusCode)
	}
	resp, _ = getJSON(t, ts.URL+"/datasets/hotels/skyline")
	if resp.StatusCode != 200 {
		t.Fatalf("surviving dataset broken by delete: %d", resp.StatusCode)
	}
}

func TestCreateDatasetValidation(t *testing.T) {
	s, ts := newTestService(t, Config{})
	for _, spec := range []DatasetSpec{
		{Name: "", Attrs: []string{"a"}},
		{Name: "bad name", Attrs: []string{"a"}},
		{Name: "ok", Attrs: nil},
		{Name: "ok", Attrs: []string{"a", "a"}},
		{Name: "ok", Attrs: []string{"a", ""}},
		{Name: "ok", Attrs: []string{"a", "b"}, Dominance: "flex:1,2,3"},
		{Name: "ok", Attrs: []string{"a", "b"}, Dominance: "nope"},
		{Name: "ok", Attrs: []string{"a", "b"}, Mins: []float64{0}},
	} {
		b, _ := json.Marshal(spec)
		resp, err := http.Post(ts.URL+"/datasets", "application/json", bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("spec %+v accepted with %d", spec, resp.StatusCode)
		}
	}
	if s.datasets.Len() != 0 {
		t.Fatalf("invalid specs registered datasets: %d", s.datasets.Len())
	}
	mustCreate(t, ts.URL, DatasetSpec{Name: "ok", Attrs: []string{"a", "b"}})
	b, _ := json.Marshal(DatasetSpec{Name: "ok", Attrs: []string{"a", "b"}})
	resp, _ := http.Post(ts.URL+"/datasets", "application/json", bytes.NewReader(b))
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate create: %d, want 409", resp.StatusCode)
	}
}

// TestCacheVersioning: a repeated identical query is a cache hit;
// ingest into one dataset invalidates that dataset's cached results
// only.
func TestCacheVersioning(t *testing.T) {
	_, ts := newTestService(t, Config{Bits: 10})
	for _, name := range []string{"a", "b"} {
		mustCreate(t, ts.URL, DatasetSpec{Name: name, Attrs: []string{"x", "y"}})
		mustIngest(t, ts.URL, name, [][]float64{{0.3, 0.7}, {0.7, 0.3}})
	}
	get := func(name string) (cache string, count int) {
		resp, out := getJSON(t, ts.URL+"/datasets/"+name+"/skyline")
		if resp.StatusCode != 200 {
			t.Fatalf("skyline %s: %d", name, resp.StatusCode)
		}
		return resp.Header.Get("X-Cache"), int(out["count"].(float64))
	}
	if c, _ := get("a"); c != "miss" {
		t.Fatalf("first query X-Cache = %q, want miss", c)
	}
	if c, _ := get("a"); c != "hit" {
		t.Fatalf("repeated query X-Cache = %q, want hit", c)
	}
	if c, _ := get("b"); c != "miss" {
		t.Fatalf("dataset b first query X-Cache = %q", c)
	}
	if c, _ := get("b"); c != "hit" {
		t.Fatalf("dataset b repeat X-Cache = %q", c)
	}

	// Ingest into a: its next query misses and sees the new point; b's
	// cache is untouched.
	mustIngest(t, ts.URL, "a", [][]float64{{0.1, 0.1}})
	c, n := get("a")
	if c != "miss" || n != 1 {
		t.Fatalf("post-ingest query = (%q, %d), want (miss, 1)", c, n)
	}
	if c, _ := get("b"); c != "hit" {
		t.Fatalf("ingest into a invalidated b's cache (X-Cache = %q)", c)
	}

	// The hit/miss counters are exposed per dataset.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	for _, want := range []string{
		`zsky_cache_hits_total{dataset="a"} 1`,
		`zsky_cache_misses_total{dataset="a"} 2`,
		`zsky_cache_hits_total{dataset="b"} 2`,
		`zsky_cache_misses_total{dataset="b"} 1`,
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestAdmissionControl: with every in-flight slot held, queries are
// rejected with 429 + Retry-After instead of queueing, and the
// rejection is counted and logged.
func TestAdmissionControl(t *testing.T) {
	s, ts := newTestService(t, Config{MaxInFlight: 1})
	mustCreate(t, ts.URL, DatasetSpec{Name: "busy", Attrs: []string{"x", "y"}})
	mustIngest(t, ts.URL, "busy", [][]float64{{0.5, 0.5}})

	e := s.datasets.Get("busy")
	release, ok := e.tryAcquire()
	if !ok {
		t.Fatal("fresh engine saturated")
	}
	resp, out := getJSON(t, ts.URL+"/datasets/busy/skyline")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated query: %d %v, want 429", resp.StatusCode, out)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	release()
	resp, _ = getJSON(t, ts.URL+"/datasets/busy/skyline")
	if resp.StatusCode != 200 {
		t.Fatalf("post-release query: %d", resp.StatusCode)
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	body, _ := io.ReadAll(mresp.Body)
	if !strings.Contains(string(body), `zsky_admission_rejects_total{dataset="busy"} 1`) {
		t.Error("admission reject not counted")
	}
	found := false
	for _, ev := range s.Events().Snapshot() {
		if ev.Error == "saturated" && ev.Status == http.StatusTooManyRequests {
			found = true
		}
	}
	if !found {
		t.Error("saturated rejection not in event log")
	}
}

// TestSnapshotRestoreHTTP round-trips a non-Pareto dataset through
// GET /snapshot and POST /restore.
func TestSnapshotRestoreHTTP(t *testing.T) {
	_, ts := newTestService(t, Config{Bits: 10})
	mustCreate(t, ts.URL, DatasetSpec{
		Name: "src", Attrs: []string{"x", "y"}, Dominance: "flex:1,2;2,1",
	})
	mustIngest(t, ts.URL, "src", [][]float64{{0.2, 0.8}, {0.8, 0.2}, {0.5, 0.5}, {0.9, 0.9}})

	snapResp, err := http.Get(ts.URL + "/datasets/src/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	blob, _ := io.ReadAll(snapResp.Body)
	snapResp.Body.Close()
	if snapResp.StatusCode != 200 || len(blob) == 0 {
		t.Fatalf("snapshot: %d (%d bytes)", snapResp.StatusCode, len(blob))
	}

	restResp, err := http.Post(ts.URL+"/datasets/copy/restore", "application/octet-stream", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, restResp.Body)
	restResp.Body.Close()
	if restResp.StatusCode != http.StatusCreated {
		t.Fatalf("restore: %d", restResp.StatusCode)
	}

	_, srcH := getJSON(t, ts.URL+"/datasets/src/healthz")
	_, cpH := getJSON(t, ts.URL+"/datasets/copy/healthz")
	if cpH["dominance"] != srcH["dominance"] || cpH["version"] != srcH["version"] {
		t.Fatalf("restored health = %v, want %v", cpH, srcH)
	}
	_, srcSky := getJSON(t, ts.URL+"/datasets/src/skyline")
	_, cpSky := getJSON(t, ts.URL+"/datasets/copy/skyline")
	if fmt.Sprint(srcSky["count"]) != fmt.Sprint(cpSky["count"]) {
		t.Fatalf("restored skyline %v, want %v", cpSky["count"], srcSky["count"])
	}

	// Windowed datasets refuse to snapshot.
	mustCreate(t, ts.URL, DatasetSpec{Name: "win", Attrs: []string{"x", "y"}, Window: 4})
	resp, _ := getJSON(t, ts.URL+"/datasets/win/snapshot")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("windowed snapshot: %d, want 400", resp.StatusCode)
	}
}

// TestWindowedDataset serves a sliding window: old points expire out
// of the served skyline.
func TestWindowedDataset(t *testing.T) {
	_, ts := newTestService(t, Config{Bits: 10})
	mustCreate(t, ts.URL, DatasetSpec{Name: "w", Attrs: []string{"x", "y"}, Window: 2})
	mustIngest(t, ts.URL, "w", [][]float64{{0.1, 0.1}}) // dominator
	mustIngest(t, ts.URL, "w", [][]float64{{0.4, 0.6}, {0.6, 0.4}})
	// Capacity 2: the dominator has expired; both dominated points serve.
	_, sky := getJSON(t, ts.URL+"/datasets/w/skyline")
	if int(sky["count"].(float64)) != 2 {
		t.Fatalf("windowed skyline = %v, want the 2 live points", sky)
	}
	_, health := getJSON(t, ts.URL+"/datasets/w/healthz")
	if health["points"].(float64) != 3 {
		t.Fatalf("windowed seen = %v, want 3", health["points"])
	}
}

// TestExplainNonTransitiveWindow: under kdom:1 the rows [0,1] and
// [1,0] dominate each other, so the window's skyline is empty; yet both
// dominate [0.5,0.5], and /explain must say so.
func TestExplainNonTransitiveWindow(t *testing.T) {
	_, ts := newTestService(t, Config{Bits: 10})
	mustCreate(t, ts.URL, DatasetSpec{Name: "w", Attrs: []string{"x", "y"}, Window: 8, Dominance: "kdom:1"})
	mustIngest(t, ts.URL, "w", [][]float64{{0, 1}, {1, 0}})
	if _, sky := getJSON(t, ts.URL+"/datasets/w/skyline"); int(sky["count"].(float64)) != 0 {
		t.Fatalf("kdom:1 skyline = %v, want empty", sky)
	}
	resp, out := postJSON(t, ts.URL+"/datasets/w/explain", map[string]any{"point": []float64{0.5, 0.5}})
	if resp.StatusCode != http.StatusOK || out["dominated"] != true {
		t.Fatalf("explain [0.5,0.5] = %d %v, want dominated", resp.StatusCode, out)
	}
	if doms, _ := out["dominators"].([]any); len(doms) != 2 {
		t.Fatalf("dominators = %v, want both rows", out["dominators"])
	}
}

// TestSubscribeLongPoll: a subscriber blocked on the current skyline
// version is woken by the next skyline-changing ingest.
func TestSubscribeLongPoll(t *testing.T) {
	_, ts := newTestService(t, Config{Bits: 10})
	mustCreate(t, ts.URL, DatasetSpec{Name: "live", Attrs: []string{"x", "y"}})
	mustIngest(t, ts.URL, "live", [][]float64{{0.5, 0.5}})

	// since=0 with sky_version 1: immediate.
	resp, out := getJSON(t, ts.URL+"/datasets/live/subscribe?since=0&wait=5s")
	if resp.StatusCode != 200 || out["changed"] != true || out["sky_version"].(float64) != 1 {
		t.Fatalf("immediate subscribe = %v", out)
	}

	// since=1: blocks until the dominating ingest below.
	type subResult struct {
		out map[string]any
		err error
	}
	ch := make(chan subResult, 1)
	go func() {
		resp, err := http.Get(ts.URL + "/datasets/live/subscribe?since=1&wait=10s")
		if err != nil {
			ch <- subResult{nil, err}
			return
		}
		defer resp.Body.Close()
		var out map[string]any
		err = json.NewDecoder(resp.Body).Decode(&out)
		ch <- subResult{out, err}
	}()
	time.Sleep(50 * time.Millisecond) // let the poll park
	mustIngest(t, ts.URL, "live", [][]float64{{0.1, 0.1}})
	select {
	case res := <-ch:
		if res.err != nil {
			t.Fatal(res.err)
		}
		if res.out["changed"] != true || res.out["sky_version"].(float64) != 2 || int(res.out["count"].(float64)) != 1 {
			t.Fatalf("woken subscribe = %v", res.out)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("subscriber not woken by skyline change")
	}

	// A non-changing wait times out with changed=false.
	resp, out = getJSON(t, ts.URL+"/datasets/live/subscribe?since=2&wait=50ms")
	if resp.StatusCode != 200 || out["changed"] != false {
		t.Fatalf("timed-out subscribe = %v", out)
	}
}

// skySetKey canonicalizes a skyline point set for oracle membership
// checks.
func skySetKey(pts []point.Point) string {
	sorted := append([]point.Point(nil), pts...)
	point.SortLexicographic(sorted)
	var b strings.Builder
	for _, p := range sorted {
		b.WriteString(p.String())
		b.WriteByte('|')
	}
	return b.String()
}

// TestConcurrentIngestQueryOracle is the serving-tier torn-read test:
// one goroutine streams ingest blocks into a dataset while query
// goroutines hammer /skyline and /query over HTTP. Every response —
// cached or computed — must equal the brute-force oracle over some
// exact prefix of the ingest stream: no torn reads, and the cache
// never serves a version the data log has moved past without the
// response saying so. Run under -race.
func TestConcurrentIngestQueryOracle(t *testing.T) {
	s := NewService(Config{Bits: 10, MaxInFlight: -1})
	e, err := s.CreateDataset(DatasetSpec{Name: "race", Attrs: []string{"x", "y"}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	rng := rand.New(rand.NewSource(1234))
	const nBlocks = 48
	const perBlock = 6
	blocks := make([]point.Block, nBlocks)
	var all []point.Point
	// validSky / validRows hold the oracle answers for every prefix of
	// the ingest stream (including the empty one).
	validSky := map[string]bool{skySetKey(nil): true}
	validRows := map[string]bool{fmt.Sprint([]int(nil)): true}
	cols := []prefCol{{0, false}, {1, false}}
	for i := range blocks {
		pts := make([]point.Point, perBlock)
		for j := range pts {
			pts[j] = point.Point{rng.Float64(), rng.Float64()}
		}
		blocks[i] = point.BlockOf(2, pts)
		all = append(all, pts...)
		validSky[skySetKey(seq.BruteForce(all))] = true
		validRows[fmt.Sprint(queryRows(point.BlockOf(2, all), cols))] = true
	}

	var ingested atomic.Bool
	go func() {
		for _, b := range blocks {
			if _, err := s.Ingest(e, b); err != nil {
				t.Error(err)
				break
			}
		}
		ingested.Store(true)
	}()

	queryBody, _ := json.Marshal(map[string]any{"prefer": []map[string]string{
		{"attr": "x", "dir": "min"}, {"attr": "y", "dir": "min"},
	}})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				if g%2 == 0 {
					resp, err := http.Get(ts.URL + "/datasets/race/skyline")
					if err != nil {
						t.Error(err)
						return
					}
					var out struct {
						Points []point.Point `json:"points"`
					}
					err = json.NewDecoder(resp.Body).Decode(&out)
					resp.Body.Close()
					if err != nil {
						t.Error(err)
						return
					}
					if !validSky[skySetKey(out.Points)] {
						t.Errorf("skyline response matches no ingest prefix: %v", out.Points)
						return
					}
				} else {
					resp, err := http.Post(ts.URL+"/datasets/race/query", "application/json", bytes.NewReader(queryBody))
					if err != nil {
						t.Error(err)
						return
					}
					var out struct {
						Rows []int `json:"rows"`
					}
					err = json.NewDecoder(resp.Body).Decode(&out)
					resp.Body.Close()
					if err != nil {
						t.Error(err)
						return
					}
					if !sort.IntsAreSorted(out.Rows) {
						t.Errorf("rows not sorted: %v", out.Rows)
						return
					}
					if !validRows[fmt.Sprint(out.Rows)] {
						t.Errorf("query rows match no ingest prefix: %v", out.Rows)
						return
					}
				}
				if ingested.Load() && i >= 25 {
					return
				}
			}
		}(g)
	}
	wg.Wait()

	// Converged state: the full-stream oracle, and a cache hit on
	// repeat.
	resp, err := http.Get(ts.URL + "/datasets/race/skyline")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	resp, err = http.Get(ts.URL + "/datasets/race/skyline")
	if err != nil {
		t.Fatal(err)
	}
	var final struct {
		Points []point.Point `json:"points"`
	}
	json.NewDecoder(resp.Body).Decode(&final)
	resp.Body.Close()
	if resp.Header.Get("X-Cache") != "hit" {
		t.Error("settled repeat query not served from cache")
	}
	if skySetKey(final.Points) != skySetKey(seq.BruteForce(all)) {
		t.Fatalf("final skyline diverged from oracle: %d points, want %d",
			len(final.Points), len(seq.BruteForce(all)))
	}
	if got := e.Version(); got != nBlocks {
		t.Fatalf("final version = %d, want %d", got, nBlocks)
	}
}
