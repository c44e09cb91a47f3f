// Package gpmrs reimplements the MR-GPMRS baseline the paper compares
// against in §6.5 ([12]: grid-partitioning + bitstring skyline
// computation on MapReduce). The scheme:
//
//  1. Learn a median split per (used) dimension from a sample; each
//     point maps to a binary grid cell, identified by a bitmask with
//     bit i set when the point is above dimension i's median.
//  2. The global cell bitstring (which cells are non-empty) decides
//     which cell is fully dominated by a non-empty cell (with two
//     divisions per dimension, only the all-ones cell can be, by the
//     all-zeros cell).
//  3. Job 1 computes local skylines per cell: 2×Workers map tasks
//     cell-tag their rows, drop the dominated cell and SB-combine per
//     cell, then Reducers tasks SB the cells they own (cell c belongs
//     to reducer c mod Reducers).
//  4. Job 2 merges globally with MULTIPLE reducers — GPMRS's
//     distinguishing trick: each reducer owns a subset of cells and
//     receives, besides its own candidates, copies of every candidate
//     from subset-cells that could dominate into its territory, so all
//     reducers verify independently and no single-node merge exists.
//
// Both jobs keep [12]'s task shape and run as task fan-outs on one
// plan.LocalExec sized by Workers. Tasks share memory, so job 2's
// reducers read the subset cells' candidates where job 1 left them;
// the copies a cluster would ship are counted exactly
// (Report.DuplicatedRecords), not made.
//
// The result is exact; the baseline's weakness in high dimensions
// (cell pruning degrades, candidate duplication grows) is intrinsic to
// the design, which is precisely what the paper's Figure 12 shows.
package gpmrs

import (
	"context"
	"fmt"
	"sort"
	"time"

	"zskyline/internal/metrics"
	"zskyline/internal/plan"
	"zskyline/internal/point"
	"zskyline/internal/sample"
	"zskyline/internal/seq"
)

// MaxGridDims caps the number of dimensions used for the binary grid
// so the bitstring stays 2^k cells.
const MaxGridDims = 12

// Config parameterizes a GPMRS run.
type Config struct {
	// Reducers is the number of reduce tasks in each job (the
	// multi-reducer global skyline). Zero selects Workers.
	Reducers int
	// Workers sizes the task pool both jobs run on; job 1 has 2×Workers
	// map tasks. Zero selects 8.
	Workers int
	// SampleRatio feeds the median estimation. Zero selects 0.02.
	SampleRatio float64
	// Seed drives sampling.
	Seed int64
}

// Report describes a run.
type Report struct {
	UsedDims      int
	NonEmptyCells int
	DroppedCells  int
	// FilteredPoints are points dropped because their cell was
	// dominated.
	FilteredPoints int64
	// Candidates is the number of local-skyline candidates entering the
	// global merge.
	Candidates int
	// DuplicatedRecords counts the candidate copies bound for foreign
	// reducers during the merge — GPMRS's replication overhead.
	DuplicatedRecords int64
	Preprocess        time.Duration
	Total             time.Duration
	Tally             metrics.Snapshot
}

// Skyline computes the exact skyline of ds with the MR-GPMRS scheme.
func Skyline(ctx context.Context, ds *point.Dataset, cfg Config) ([]point.Point, *Report, error) {
	rep := &Report{}
	if ds == nil || ds.Len() == 0 {
		return nil, rep, nil
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 8
	}
	if cfg.Reducers <= 0 {
		cfg.Reducers = cfg.Workers
	}
	if cfg.SampleRatio <= 0 {
		cfg.SampleRatio = 0.02
	}
	ex := plan.NewLocalExec(cfg.Workers)
	tally := &metrics.Tally{}
	start := time.Now()

	// ---- Preprocessing: medians from a sample ----
	t0 := time.Now()
	smp, err := sample.Ratio(ds.Points, cfg.SampleRatio, cfg.Seed)
	if err != nil {
		return nil, nil, err
	}
	k := ds.Dims
	if k > MaxGridDims {
		k = MaxGridDims
	}
	medians := make([]float64, k)
	col := make([]float64, len(smp))
	for d := 0; d < k; d++ {
		for i, p := range smp {
			col[i] = p[d]
		}
		sort.Float64s(col)
		medians[d] = col[len(col)/2]
	}
	rep.UsedDims = k
	cellOf := func(p point.Point) uint32 {
		var c uint32
		for d := 0; d < k; d++ {
			if p[d] > medians[d] {
				c |= 1 << uint(d)
			}
		}
		return c
	}
	rep.Preprocess = time.Since(t0)

	// ---- Global bitstring and the dominated cell ----
	// The original computes the bitstring with a tiny MapReduce round;
	// a scan is equivalent and keeps the job count at two, like the
	// paper's pipeline.
	nonEmpty := map[uint32]bool{}
	for _, p := range ds.Points {
		nonEmpty[cellOf(p)] = true
	}
	rep.NonEmptyCells = len(nonEmpty)
	// Cell a fully dominates cell b only when a sits strictly below b
	// in EVERY dimension: with two divisions per dimension that means
	// a is the all-zeros cell and b the all-ones cell. Dropping is only
	// sound when the grid spans all dataset dimensions (k == Dims);
	// otherwise ungridded dimensions could break dominance.
	full := uint32(1)<<uint(k) - 1
	dropFull := k == ds.Dims && nonEmpty[0] && nonEmpty[full] && full != 0
	if dropFull {
		rep.DroppedCells = 1
	}
	cells := make([]uint32, 0, len(nonEmpty))
	for c := range nonEmpty {
		if !dropFull || c != full {
			cells = append(cells, c)
		}
	}
	sort.Slice(cells, func(i, j int) bool { return cells[i] < cells[j] })
	reducerOf := func(c uint32) int { return int(c) % cfg.Reducers }

	// ---- Job 1 map: cell-tag, drop the dominated cell, SB-combine ----
	rows := ds.Points
	splits := min(2*cfg.Workers, len(rows))
	combined := make([]map[uint32][]point.Point, splits)
	filtered := make([]int64, splits)
	err = ex.FanOut(ctx, splits, func(i int) {
		byCell := map[uint32][]point.Point{}
		for _, p := range rows[i*len(rows)/splits : (i+1)*len(rows)/splits] {
			c := cellOf(p)
			if dropFull && c == full {
				filtered[i]++
				continue
			}
			byCell[c] = append(byCell[c], p)
		}
		for c, vals := range byCell {
			byCell[c] = seq.SB(vals, tally)
		}
		combined[i] = byCell
	})
	if err != nil {
		return nil, nil, fmt.Errorf("gpmrs: job 1 map: %w", err)
	}
	for _, f := range filtered {
		rep.FilteredPoints += f
	}

	// ---- Job 1 reduce: each reducer SBs the cells it owns ----
	// cands[j] is the local skyline of cells[j].
	cands := make([][]point.Point, len(cells))
	err = ex.FanOut(ctx, cfg.Reducers, func(r int) {
		for j, c := range cells {
			if reducerOf(c) != r {
				continue
			}
			var vals []point.Point
			for _, byCell := range combined {
				vals = append(vals, byCell[c]...)
			}
			cands[j] = seq.SB(vals, tally)
		}
	})
	if err != nil {
		return nil, nil, fmt.Errorf("gpmrs: job 1 reduce: %w", err)
	}

	// ---- Job 2: multi-reducer global merge ----
	// A candidate of cell c goes to c's reducer and, as a copy, to the
	// reducer of every cell c is a subset of: every dimension where c
	// is "high", the superset is too, so c's points can dominate there.
	seen := make([]bool, cfg.Reducers)
	for j, c := range cells {
		rep.Candidates += len(cands[j])
		clear(seen)
		seen[reducerOf(c)] = true
		copies := 0
		for _, sup := range cells {
			if r := reducerOf(sup); c&^sup == 0 && !seen[r] {
				seen[r] = true
				copies++
			}
		}
		rep.DuplicatedRecords += int64(copies * len(cands[j]))
	}
	out := make([][]point.Point, cfg.Reducers)
	err = ex.FanOut(ctx, cfg.Reducers, func(r int) {
		var tests int64
		for j, c := range cells {
			if reducerOf(c) != r {
				continue
			}
			for _, p := range cands[j] {
				if !dominatedBySubsets(p, c, cells, cands, &tests) {
					out[r] = append(out[r], p)
				}
			}
		}
		tally.AddDominanceTests(tests)
	})
	if err != nil {
		return nil, nil, fmt.Errorf("gpmrs: job 2: %w", err)
	}
	var sky []point.Point
	for _, part := range out {
		sky = append(sky, part...)
	}
	rep.Total = time.Since(start)
	rep.Tally = tally.Snapshot()
	return sky, rep, nil
}

// dominatedBySubsets reports whether a candidate of cell c is dominated
// by a candidate of c or of a subset cell — the only cells whose points
// can dominate it — counting the dominance tests it makes.
func dominatedBySubsets(p point.Point, c uint32, cells []uint32, cands [][]point.Point, tests *int64) bool {
	for i, sub := range cells {
		if sub&^c != 0 {
			continue
		}
		for _, q := range cands[i] {
			*tests++
			if point.Dominates(q, p) {
				return true
			}
		}
	}
	return false
}

// String summarizes a report.
func (r *Report) String() string {
	return fmt.Sprintf("gpmrs{dims: %d, cells: %d, dropped: %d, candidates: %d, dup: %d}",
		r.UsedDims, r.NonEmptyCells, r.DroppedCells, r.Candidates, r.DuplicatedRecords)
}
