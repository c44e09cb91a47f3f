// Package exp is the benchmark harness that regenerates every table
// and figure of the paper's evaluation (§6) at laptop scale. Each
// experiment is registered under the paper's figure id, declares its
// workload, and emits a Table whose series mirror what the paper
// plots. DESIGN.md §3 maps ids to modules; EXPERIMENTS.md records
// paper-claim vs measured shape.
//
// Dataset sizes are the paper's divided by 1000 by default (the paper
// runs 10M-110M points on a cluster; we run goroutine workers), and
// scale linearly with Params.Scale. Every run, the MR-GPMRS baseline's
// included, executes on a goroutine pool of Params.Workers.
package exp

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"zskyline/internal/core"
	"zskyline/internal/gpmrs"
	"zskyline/internal/point"
)

// Params controls an experiment run.
type Params struct {
	// Scale multiplies every dataset size. 1.0 reproduces the default
	// laptop-scale sizes (paper sizes / 1000).
	Scale float64
	// Workers is how many tasks each run executes at once. Zero
	// selects 8.
	Workers int
	// Seed drives data generation and sampling.
	Seed int64
}

func (p Params) normalize() Params {
	if p.Scale <= 0 {
		p.Scale = 1
	}
	if p.Workers <= 0 {
		p.Workers = 8
	}
	return p
}

// n scales a base point count (expressed in thousands of points).
func (p Params) n(thousands int) int {
	v := int(float64(thousands) * 1000 * p.Scale)
	if v < 100 {
		v = 100
	}
	return v
}

// Table is one experiment's result: the rows the paper's figure plots.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	// Notes carries caveats (reconstructed experiments, substitutions).
	Notes string
}

// AddRow appends a row of already-formatted cells.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Format renders the table as aligned text.
func (t *Table) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s — %s ==\n", t.ID, t.Title)
	if t.Notes != "" {
		fmt.Fprintf(&b, "   note: %s\n", t.Notes)
	}
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	writeRow(dashes(widths))
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

func dashes(widths []int) []string {
	out := make([]string, len(widths))
	for i, w := range widths {
		out[i] = strings.Repeat("-", w)
	}
	return out
}

// CSV renders the table as comma-separated values.
func (t *Table) CSV() string {
	var b strings.Builder
	b.WriteString(strings.Join(t.Columns, ","))
	b.WriteByte('\n')
	for _, row := range t.Rows {
		b.WriteString(strings.Join(row, ","))
		b.WriteByte('\n')
	}
	return b.String()
}

// Experiment is one registered paper figure.
type Experiment struct {
	ID       string
	Title    string
	PaperRef string
	Run      func(ctx context.Context, p Params) (*Table, error)
}

var registry = map[string]Experiment{}

func register(e Experiment) {
	if _, dup := registry[e.ID]; dup {
		panic("exp: duplicate experiment id " + e.ID)
	}
	registry[e.ID] = e
}

// Get looks up an experiment by id (e.g. "fig7a").
func Get(id string) (Experiment, bool) {
	e, ok := registry[id]
	return e, ok
}

// All returns every experiment sorted by id.
func All() []Experiment {
	out := make([]Experiment, 0, len(registry))
	for _, e := range registry {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// combo names a (strategy, local algorithm) series like the paper:
// "Grid+ZS", "ZDG+SB", ...
type combo struct {
	st    core.Strategy
	local core.LocalAlgo
	merge core.MergeAlgo
}

func (c combo) name() string {
	return c.st.String() + "+" + c.local.String()
}

// runPipeline executes one pipeline configuration and returns its
// report.
func runPipeline(ctx context.Context, ds *point.Dataset, c combo, m int, p Params) (*core.Report, error) {
	cfg := core.Defaults()
	cfg.Strategy = c.st
	cfg.Local = c.local
	cfg.Merge = c.merge
	cfg.M = m
	cfg.Workers = p.Workers
	cfg.Seed = p.Seed
	cfg.SampleRatio = sampleRatioFor(ds.Len())
	cfg.Bits = bitsFor(ds.Dims)
	eng, err := core.NewEngine(cfg)
	if err != nil {
		return nil, err
	}
	_, rep, err := eng.Skyline(ctx, ds)
	return rep, err
}

// sampleRatioFor keeps the sample size meaningful at laptop scale: the
// paper uses 0.5%-4% of tens of millions; a fixed 2% of 10k points
// would leave too few pivots.
func sampleRatioFor(n int) float64 {
	switch {
	case n <= 20000:
		return 0.05
	case n <= 200000:
		return 0.02
	default:
		return 0.01
	}
}

// bitsFor shrinks the per-dimension grid for very high-dimensional
// data so Z-addresses stay compact.
func bitsFor(d int) int {
	switch {
	case d <= 16:
		return 16
	case d <= 64:
		return 12
	default:
		return 8
	}
}

// ms formats a duration in milliseconds.
func ms(d time.Duration) string {
	return fmt.Sprintf("%.1f", float64(d.Microseconds())/1000)
}

// runGPMRS executes the MR-GPMRS baseline and returns its report.
func runGPMRS(ctx context.Context, ds *point.Dataset, p Params) (*gpmrs.Report, error) {
	_, rep, err := gpmrs.Skyline(ctx, ds, gpmrs.Config{
		Workers:     p.Workers,
		SampleRatio: sampleRatioFor(ds.Len()),
		Seed:        p.Seed,
	})
	return rep, err
}
