package plan

import (
	"context"
	"fmt"
	"io"
	"time"

	"zskyline/internal/dominance"
	"zskyline/internal/metrics"
	"zskyline/internal/obs"
	"zskyline/internal/point"
	"zskyline/internal/sample"
)

// Report describes one pipeline run at the plan level: the phase
// numbers every substrate shares. Substrates wrap it with their own
// execution statistics (worker counts, wire bytes).
type Report struct {
	// Phase wall-clock durations. Preprocess covers ingest, sampling,
	// rule learning, and the broadcast.
	Preprocess time.Duration
	Phase2     time.Duration
	Phase3     time.Duration
	Total      time.Duration

	// SampleSize is the number of sampled points; SampleSkySize the
	// size of the sample skyline loaded into every mapper.
	SampleSize    int
	SampleSkySize int

	// Groups is the number of groups (= phase-2 reducers); Partitions
	// the number of Z-partitions before grouping; PrunedPartitions how
	// many were dropped as fully dominated.
	Groups           int
	Partitions       int
	PrunedPartitions int

	// Filtered counts input points dropped by the SZB-tree filter or by
	// pruned partitions before the shuffle.
	Filtered int64
	// PerGroupInput counts the rows routed to each group (indexed by
	// gid), as the reduce phase receives them: the paper's first balance
	// goal. It sums to the input size minus Filtered.
	PerGroupInput []int
	// Candidates is the phase-2 output size; PerGroupCandidates its
	// per-group breakdown (indexed by gid), the paper's second balance
	// goal.
	Candidates         int
	PerGroupCandidates []int
	// SkylineSize is |S|.
	SkylineSize int
}

// driver is what the phases of one run share: what to compute, where,
// and the report and tally they fill.
type driver struct {
	spec  *Spec
	ex    Executor
	rep   *Report
	tally *metrics.Tally
	start time.Time
}

func newDriver(spec *Spec, ex Executor, tally *metrics.Tally) *driver {
	return &driver{spec: spec, ex: ex, rep: &Report{}, tally: tally, start: time.Now()}
}

// Run executes the full three-phase pipeline on ex over an in-memory
// dataset. It is RunSource over the dataset's block adapter, with one
// exception: a Positional run on LocalExec maps the dataset's row views
// where they lie, so rows the SZB filter drops are never packed or
// Z-encoded at all.
func Run(ctx context.Context, spec *Spec, ds *point.Dataset, ex Executor, tally *metrics.Tally) ([]point.Point, *Report, error) {
	if ds == nil || ds.Len() == 0 {
		return nil, &Report{}, nil
	}
	if lx, ok := ex.(*LocalExec); ok && spec.Strategy == Positional {
		return runRows(ctx, spec, ds, lx, tally)
	}
	return RunSource(ctx, spec, point.NewDatasetSource(ds), ex, tally)
}

// RunSource executes the full three-phase pipeline on ex: drain src
// into contiguous blocks (folding bounds in the same pass), learn the
// rule from a sample, map/shuffle/reduce to per-group skyline
// candidates, and merge them into the exact global skyline.
//
// When ctx carries an obs trace (obs.ContextWithTrace), RunSource
// emits the library's uniform span taxonomy — learn, map,
// local-skyline, and merge/round-1 — under the context's current span,
// so every substrate produces structurally identical trace reports.
func RunSource(ctx context.Context, spec *Spec, src point.Source, ex Executor, tally *metrics.Tally) ([]point.Point, *Report, error) {
	if src == nil {
		return nil, &Report{}, nil
	}
	d := newDriver(spec, ex, tally)

	// ---- Phase 1: preprocessing on the master ----
	learnSpan, lctx := obs.StartSpan(ctx, "learn")
	blocks, mins, maxs, n, err := ingest(src, spec)
	if err != nil {
		learnSpan.End()
		return nil, nil, err
	}
	if n == 0 {
		learnSpan.End()
		return nil, d.rep, nil
	}
	rows := make([]point.Point, 0, n)
	for _, b := range blocks {
		rows = b.AppendPoints(rows)
	}
	chunks := spec.chunkBlocks(blocks)
	r, err := d.learn(lctx, learnSpan, src.Dims(), mins, maxs, rows, len(chunks))
	if err != nil {
		return nil, nil, err
	}

	// ---- Phase 2: compute skyline candidates ----
	groups, err := d.phase2(ctx, r, len(chunks), func(mctx context.Context) ([]MapOutput, error) {
		return ex.RunMaps(mctx, r, chunks, tally)
	})
	if err != nil {
		return nil, nil, err
	}

	// ---- Phase 3: merge skyline candidates ----
	return d.mergeAndReport(ctx, r, groups, n, func() []point.Block { return blocks })
}

// runRows is RunSource for a dataset held as row views, on the
// shared-memory pool: the same phases and spans, but the map tasks read
// the rows in place (LocalExec.runRowMaps) and only the verify pass of
// a non-transitive relation ever packs the whole input.
func runRows(ctx context.Context, spec *Spec, ds *point.Dataset, ex *LocalExec, tally *metrics.Tally) ([]point.Point, *Report, error) {
	d := newDriver(spec, ex, tally)

	learnSpan, lctx := obs.StartSpan(ctx, "learn")
	mins, maxs, err := ds.Bounds()
	if err != nil {
		learnSpan.End()
		return nil, nil, err
	}
	chunks := spec.chunkRows(ds.Points)
	r, err := d.learn(lctx, learnSpan, ds.Dims, mins, maxs, ds.Points, len(chunks))
	if err != nil {
		return nil, nil, err
	}

	groups, err := d.phase2(ctx, r, len(chunks), func(mctx context.Context) ([]MapOutput, error) {
		return ex.runRowMaps(mctx, r, chunks, tally)
	})
	if err != nil {
		return nil, nil, err
	}

	full := func() []point.Block { return []point.Block{point.BlockOf(ds.Dims, ds.Points)} }
	return d.mergeAndReport(ctx, r, groups, ds.Len(), full)
}

// learn is phase 1 from the point where the input's bounds and row
// views are known: sample, learn the rule, broadcast it, fill the
// report, and close the learn span with the taxonomy's attributes.
// tasks is the phase-2 map task count — under Positional also the
// group count, which Learn cannot know.
func (d *driver) learn(ctx context.Context, span *obs.Span, dims int, mins, maxs []float64, rows []point.Point, tasks int) (*Rule, error) {
	defer span.End()
	spec, rep := d.spec, d.rep
	smp, err := sample.Ratio(rows, spec.SampleRatio, spec.Seed)
	if err != nil {
		return nil, err
	}
	r, err := Learn(spec, dims, mins, maxs, smp, d.tally)
	if err != nil {
		return nil, err
	}
	if err := d.ex.Broadcast(ctx, r); err != nil {
		return nil, err
	}
	rep.Preprocess = time.Since(d.start)
	rep.SampleSize = len(smp)
	rep.SampleSkySize = r.skySize
	rep.Groups = r.groups
	rep.Partitions = r.parts
	rep.PrunedPartitions = r.pruned
	if r.positional {
		rep.Groups, rep.Partitions = tasks, tasks
	}
	span.SetAttr("strategy", spec.Strategy)
	span.SetAttr("points", len(rows))
	span.SetAttr("sample", rep.SampleSize)
	span.SetAttr("sample_skyline", rep.SampleSkySize)
	span.SetAttr("groups", rep.Groups)
	span.SetAttr("partitions", rep.Partitions)
	span.SetAttr("pruned", rep.PrunedPartitions)
	return r, nil
}

// mergeAndReport is phase 3 and the close of the report: merge the
// candidate groups, verify them against the full input when the
// relation needs it (full packs that input on demand), and stamp the
// run's totals on the report and on ctx's current span.
func (d *driver) mergeAndReport(ctx context.Context, r *Rule, groups []Group, n int, full func() []point.Block) ([]point.Point, *Report, error) {
	rep := d.rep
	for _, g := range groups {
		rep.Candidates += g.Len()
	}
	rep.PerGroupCandidates = perGroup(rep.Groups, groups)

	t2 := time.Now()
	sky, err := MergePhase(ctx, d.ex.pool(), r, groups, false, d.tally)
	if err != nil {
		return nil, nil, err
	}
	sky = verifyCandidates(ctx, r, sky, full, d.tally)
	rep.Phase3 = time.Since(t2)
	rep.SkylineSize = len(sky)
	rep.Total = time.Since(d.start)
	if sp := obs.SpanFrom(ctx); sp != nil {
		if id := obs.RequestIDFrom(ctx); id != "" {
			sp.SetAttr("request_id", id)
		}
		sp.SetAttr("points", n)
		sp.SetAttr("skyline", rep.SkylineSize)
		sp.SetAttr("candidates", rep.Candidates)
		sp.SetAttr("input_balance", metrics.NewBalance(rep.PerGroupInput).String())
		sp.SetAttr("candidate_balance", metrics.NewBalance(rep.PerGroupCandidates).String())
	}
	return sky, rep, nil
}

// verifyCandidates closes the pipeline for non-transitive dominance
// relations: local and merge phases then produce candidate supersets
// (an eliminated point can still dominate a candidate), so every
// candidate is retested against the full input — every ingested row,
// including those the mapper filter dropped; full returns it packed.
// Elimination cites a real dataset point, which is sound under any
// irreflexive relation; candidates are compacted copies, so their own
// source rows are merely coordinate-equal and never self-eliminate.
// Transitive relations (Pareto included) return sky unchanged and never
// call full.
func verifyCandidates(ctx context.Context, r *Rule, sky []point.Point, full func() []point.Block, tally *metrics.Tally) []point.Point {
	if r.pareto() || r.caps.Transitive || len(sky) == 0 {
		return sky
	}
	sp, _ := obs.StartSpan(ctx, "verify")
	sp.SetAttr("candidates", len(sky))
	cand := point.BlockOf(r.dims, sky)
	for _, b := range full() {
		cand = dominance.FilterBlock(r.prov, cand, b, tally)
	}
	sp.SetAttr("skyline", cand.Len())
	sp.End()
	return cand.Points()
}

// ingest drains the source into blocks, folding the running bounds in
// the same pass. The drain batch size follows the spec's ChunkSize so
// streaming sources hand back blocks already shaped for the map phase.
func ingest(src point.Source, spec *Spec) (blocks []point.Block, mins, maxs []float64, n int, err error) {
	dims := src.Dims()
	if dims <= 0 {
		return nil, nil, nil, 0, fmt.Errorf("plan: source has no dimensionality")
	}
	batch := spec.ChunkSize
	if batch <= 0 {
		batch = 1 << 16
	}
	for {
		b, err := src.Next(batch)
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, nil, nil, 0, err
		}
		if b.Len() == 0 {
			continue
		}
		if b.Dims != dims {
			return nil, nil, nil, 0, fmt.Errorf("plan: source block has %d dims, want %d", b.Dims, dims)
		}
		mins, maxs = b.UpdateBounds(mins, maxs)
		blocks = append(blocks, b)
		n += b.Len()
	}
	return blocks, mins, maxs, n, nil
}

// phase2 is phase 2 (§5.2): maps runs the phase's map tasks (tasks of
// them) under the taxonomy's map span; their survivors are gathered into
// groups, what each group receives is recorded, and every group is
// reduced to its skyline candidates under the local-skyline span.
func (d *driver) phase2(ctx context.Context, r *Rule, tasks int, maps func(context.Context) ([]MapOutput, error)) ([]Group, error) {
	start := time.Now()
	mapSpan, mctx := obs.StartSpan(ctx, "map")
	mapSpan.SetAttr("tasks", tasks)
	outs, err := maps(mctx)
	if err != nil {
		mapSpan.End()
		return nil, err
	}
	groups, filtered := gather(r, outs)
	mapSpan.SetAttr("filtered", filtered)
	mapSpan.End()
	d.rep.Filtered = filtered
	d.rep.PerGroupInput = perGroup(d.rep.Groups, groups)
	if groups, err = reducePhase(ctx, d.ex, r, groups, d.tally); err != nil {
		return nil, err
	}
	d.rep.Phase2 = time.Since(start)
	return groups, nil
}

// perGroup counts the rows of groups per gid, over n groups.
func perGroup(n int, groups []Group) []int {
	counts := make([]int, n)
	for _, g := range groups {
		if g.Gid >= 0 && g.Gid < n {
			counts[g.Gid] += g.Len()
		}
	}
	return counts
}

// gather turns map outputs into the reduce phase's groups: a shuffle by
// group id, except under Positional, where map task i's survivors are
// group i as they stand.
func gather(r *Rule, outs []MapOutput) ([]Group, int64) {
	if !r.positional {
		return Shuffle(outs)
	}
	groups := make([]Group, 0, len(outs))
	var filtered int64
	for i, out := range outs {
		filtered += out.Filtered
		for _, g := range out.Groups {
			g.Gid = i
			groups = append(groups, g)
		}
	}
	return groups, filtered
}

// reducePhase runs the local-skyline tasks under their taxonomy span.
func reducePhase(ctx context.Context, ex Executor, r *Rule, groups []Group, tally *metrics.Tally) ([]Group, error) {
	redSpan, rctx := obs.StartSpan(ctx, "local-skyline")
	defer redSpan.End()
	redSpan.SetAttr("groups", len(groups))
	groups, err := ex.RunReduces(rctx, r, groups, tally)
	if err != nil {
		return nil, err
	}
	candidates := 0
	for _, g := range groups {
		candidates += g.Len()
	}
	redSpan.SetAttr("candidates", candidates)
	return groups, nil
}

// MergePhase is phase 3 (§5.3) on ex's pool, as one merge/round-1 span
// whatever the schedule (see LocalExec.merge). tree is ignored: it
// chose pairwise merge rounds, which one probed tree replaced.
func MergePhase(ctx context.Context, ex *LocalExec, r *Rule, groups []Group, tree bool, tally *metrics.Tally) ([]point.Point, error) {
	if len(groups) == 0 {
		return nil, nil
	}
	sp, mctx := obs.StartSpan(ctx, "merge/round-1")
	defer sp.End()
	sp.SetAttr("groups", len(groups))
	out, err := ex.merge(mctx, r, groups, tally)
	if err != nil {
		return nil, err
	}
	sp.SetAttr("skyline", out.Len())
	return out.Points(), nil
}
