package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// aaSeeds is how many seeds each set of an A/A comparison runs.
const aaSeeds = 10

// quartiles returns what Python's statistics.quantiles(v, n=4) returns
// (the exclusive method), which is how the driver measures spread.
func quartiles(v []float64) (q1, q2, q3 float64) {
	c := append([]float64(nil), v...)
	sort.Float64s(c)
	at := func(i int) float64 {
		m := len(c) + 1
		j := min(max(i*m/4, 1), len(c)-1)
		delta := float64(i*m - j*4)
		return (c[j-1]*(4-delta) + c[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// runSelf runs this binary once, untraced, and returns the metrics of
// its last output line — the same path the driver takes.
func runSelf(workload string, seed int64, seconds float64) (map[string]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", "0")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var last struct {
		Correct bool `json:"correct"`
		Metrics map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal(lines[len(lines)-1], &last); err != nil {
		return nil, fmt.Errorf("%s seed %d: last line is not the result object: %w", workload, seed, err)
	}
	if !last.Correct {
		return nil, fmt.Errorf("%s seed %d: run reported correct=false", workload, seed)
	}
	vals := map[string]float64{}
	for name, m := range last.Metrics {
		vals[name] = m.Value
	}
	return vals, nil
}

// runAA runs every workload on aaSeeds seeds, twice, alternating which
// set goes first, and prints a markdown report: per workload and
// metric, each set's median and quartile spread as a share of the
// median, and the move of the second median against the first. It fails
// when a spread or a move exceeds the metric's bound; setup_s is held to
// the move only, as in the driver.
func runAA(seed int64, seconds float64) error {
	type key struct{ workload, metric string }
	sets := [2]map[key][]float64{{}, {}}
	for _, w := range workloads {
		for i := 0; i < aaSeeds; i++ {
			for k := 0; k < 2; k++ {
				set := (i + k) % 2
				vals, err := runSelf(w.name, seed+int64(i), seconds)
				if err != nil {
					return err
				}
				for name, v := range vals {
					sets[set][key{w.name, name}] = append(sets[set][key{w.name, name}], v)
				}
			}
			fmt.Fprintf(os.Stderr, "aa: %s seed %d done\n", w.name, seed+int64(i))
		}
	}
	fmt.Printf("# A/A: two sets of %d seeds (%d..%d), %g s per run, same binary\n\n", aaSeeds, seed, seed+aaSeeds-1, seconds)
	fmt.Println("spread = (Q3 - Q1) / median over the ten seeds; move = how much worse the second set's median is than the first's.")
	fmt.Println()
	fmt.Println("| workload | metric | bound | median A | spread A | median B | spread B | move | verdict |")
	fmt.Println("|---|---|---|---|---|---|---|---|---|")
	bad := 0
	for _, w := range workloads {
		for _, d := range endToEnd {
			k := key{w.name, d.Name}
			a1, am, a3 := quartiles(sets[0][k])
			b1, bm, b3 := quartiles(sets[1][k])
			sa, sb := (a3-a1)/am, (b3-b1)/bm
			move := bm/am - 1
			if d.Better == "higher" {
				move = -move
			}
			verdict := "ok"
			switch {
			case move > d.Bound, d.Name != "setup_s" && max(sa, sb) > d.Bound:
				verdict = "FAIL"
				bad++
			case d.Name != "setup_s" && max(sa, sb) > d.Bound/3:
				verdict = "ok (spread above a third of the bound)"
			}
			fmt.Printf("| %s | %s | %.2f | %.6g | %.1f%% | %.6g | %.1f%% | %+.1f%% | %s |\n",
				w.name, d.Name, d.Bound, am, 100*sa, bm, 100*sb, 100*move, verdict)
		}
	}
	if bad > 0 {
		return fmt.Errorf("A/A: %d workload/metric pairs exceed their bound", bad)
	}
	return nil
}
