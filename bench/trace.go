package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark
// around the layer's public function. Spans of one repetition share a
// run id; counts measured at the same boundary ride on the span.
type span struct {
	ID      int                `json:"id"`
	Parent  int                `json:"parent"` // 0 = no parent
	Run     int                `json:"run"`
	Name    string             `json:"name"` // "<layer>.<stage>"
	StartNS int64              `json:"start_ns"`
	EndNS   int64              `json:"end_ns"`
	Counts  map[string]float64 `json:"counts,omitempty"`
}

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, so traced and untraced runs share one code path.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// start opens a span and returns its id (0 on a nil recorder).
func (r *recorder) start(run, parent int, name string) int {
	if r == nil {
		return 0
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Run: run, Name: name, StartNS: now})
	return len(r.spans)
}

// end closes span id, attaching the counts taken at its boundary.
func (r *recorder) end(id int, counts map[string]float64) {
	if r == nil || id == 0 {
		return
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id-1].EndNS = now
	r.spans[id-1].Counts = counts
}

// layerRow is one line of the per-layer table.
type layerRow struct {
	layer  string
	spans  int
	selfMS float64
	counts map[string]float64
}

// layers folds the spans by layer (the span name up to the first dot).
// A span's self time is its duration minus the part of it that its
// child spans cover; wallMS is the summed duration of the root spans.
func (r *recorder) layers() (rows []layerRow, wallMS float64) {
	kids := map[int][][2]int64{}
	for _, s := range r.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.StartNS, s.EndNS})
		}
	}
	byLayer := map[string]*layerRow{}
	for _, s := range r.spans {
		if s.Parent == 0 {
			wallMS += float64(s.EndNS-s.StartNS) / 1e6
		}
		layer, _, _ := strings.Cut(s.Name, ".")
		row := byLayer[layer]
		if row == nil {
			row = &layerRow{layer: layer, counts: map[string]float64{}}
			byLayer[layer] = row
		}
		row.spans++
		row.selfMS += float64(s.EndNS-s.StartNS-covered(kids[s.ID], s.StartNS, s.EndNS)) / 1e6
		for k, v := range s.Counts {
			row.counts[k] += v
		}
	}
	for _, row := range byLayer {
		rows = append(rows, *row)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].selfMS > rows[j].selfMS })
	return rows, wallMS
}

// covered is the length of the union of the intervals, clipped to
// [lo, hi] — children that overlap are not counted twice.
func covered(iv [][2]int64, lo, hi int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	at := lo
	for _, v := range iv {
		s, e := max(v[0], at), min(v[1], hi)
		if e > s {
			total += e - s
			at = e
		}
	}
	return total
}

// printLayers writes the per-layer table of a traced run.
func (r *recorder) printLayers(w io.Writer) {
	rows, wall := r.layers()
	fmt.Fprintf(w, "%-10s %6s %12s %7s  %s\n", "layer", "spans", "self_ms", "share", "counts")
	for _, row := range rows {
		keys := make([]string, 0, len(row.counts))
		for k := range row.counts {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var cs []string
		for _, k := range keys {
			cs = append(cs, fmt.Sprintf("%s=%.0f", k, row.counts[k]))
		}
		share := 0.0
		if wall > 0 {
			share = row.selfMS / wall
		}
		fmt.Fprintf(w, "%-10s %6d %12.3f %6.1f%%  %s\n", row.layer, row.spans, row.selfMS, 100*share, strings.Join(cs, " "))
	}
}

// write stores the spans as <dir>/trace-<workload>.json.
func (r *recorder) write(dir, workload string) (string, error) {
	path := filepath.Join(dir, "trace-"+workload+".json")
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return "", err
	}
	blob, err := json.Marshal(r.spans)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, append(blob, '\n'), 0o644)
}
