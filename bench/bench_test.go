package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"regexp"
	"slices"
	"testing"
)

// TestSmoke runs every workload, untraced and traced, at one fiftieth
// of its frozen size, so that go test ./... keeps the benchmark from
// rotting: nothing may fail or answer wrongly, and the names a run
// prints must be exactly the names BENCHMARK.json declares.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload twice, about ten seconds in all")
	}
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var declared struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name string }
		EndToEnd   []struct{ Name string } `json:"end_to_end"`
		PerLayer   []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &declared); err != nil {
		t.Fatal(err)
	}
	if declared.RunSeconds != runSeconds {
		t.Errorf("BENCHMARK.json run_seconds = %d, the benchmark freezes %d", declared.RunSeconds, runSeconds)
	}
	if len(declared.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json declares %d workloads, the benchmark has %d", len(declared.Workloads), len(workloads))
	}
	names := func(defs []struct{ Name string }) []string {
		var out []string
		for _, d := range defs {
			out = append(out, d.Name)
		}
		slices.Sort(out)
		return out
	}
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	for _, dw := range declared.Workloads {
		w, ok := findWorkload(dw.Name)
		if !ok {
			t.Errorf("BENCHMARK.json declares workload %q, which the benchmark does not have", dw.Name)
			continue
		}
		for _, trace := range []bool{false, true} {
			var log bytes.Buffer
			cfg := runConfig{seed: 42, seconds: 0.6, trace: trace, scale: 1.0 / 50, outDir: t.TempDir(), log: &log}
			res, err := runOne(context.Background(), w, cfg)
			if err != nil {
				t.Errorf("%s trace=%v: %v\n%s", w.name, trace, err, log.String())
				continue
			}
			if res.failed != 0 || res.attempted < 1 {
				t.Errorf("%s trace=%v: attempted=%d failed=%d", w.name, trace, res.attempted, res.failed)
			}
			want := names(declared.EndToEnd)
			if trace {
				want = names(declared.PerLayer)
			}
			var got []string
			for name := range res.values {
				if !valid.MatchString(name) {
					t.Errorf("%s trace=%v: metric name %q is not made of letters, digits, _ . -", w.name, trace, name)
				}
				got = append(got, name)
			}
			slices.Sort(got)
			if !slices.Equal(got, want) {
				t.Errorf("%s trace=%v: printed metrics\n%v\nBENCHMARK.json declares\n%v", w.name, trace, got, want)
			}
		}
	}
}
