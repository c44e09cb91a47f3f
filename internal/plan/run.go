package plan

import (
	"context"
	"fmt"
	"io"
	"time"

	"zskyline/internal/codec"
	"zskyline/internal/metrics"
	"zskyline/internal/obs"
	"zskyline/internal/point"
	"zskyline/internal/sample"
	"zskyline/internal/seq"
)

// Report describes one pipeline run: the numbers the paper's
// evaluation plots, shared by every executor. Executors embed it beside
// their own execution statistics (a tally, worker counts, wire bytes).
type Report struct {
	// Strategy, Local and Merge are the spec's algorithms.
	Strategy Strategy
	Local    LocalAlgo
	Merge    MergeAlgo

	// Phase wall-clock durations. Preprocess covers the bounds scan,
	// sampling, rule learning, and the broadcast.
	Preprocess time.Duration
	Phase2     time.Duration
	Phase3     time.Duration
	Total      time.Duration

	// Points is the number of input rows.
	Points int

	// SampleSize is the number of sampled points; SampleSkySize the
	// size of their skyline, which partitioning reads; FilterRows the
	// number of those rows in the SZB filter every mapper probes (0
	// when the filter is off).
	SampleSize    int
	SampleSkySize int
	FilterRows    int

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
	// goal. It sums to Points minus Filtered.
	PerGroupInput []int
	// Candidates is the phase-2 output size (the paper's "number of
	// skyline candidates", Figure 9); PerGroupCandidates its per-group
	// breakdown (indexed by gid), the paper's second balance goal.
	Candidates         int
	PerGroupCandidates []int
	// SkylineSize is |S|.
	SkylineSize int
}

// InputBalance summarizes the spread of routed rows across groups — the
// paper's first balance goal, and the straggler metric for phase 2.
func (r *Report) InputBalance() metrics.Balance {
	return metrics.NewBalance(r.PerGroupInput)
}

// CandidateBalance summarizes the spread of candidates across groups —
// the paper's second balance goal, and the straggler metric for phase 3.
func (r *Report) CandidateBalance() metrics.Balance {
	return metrics.NewBalance(r.PerGroupCandidates)
}

// WriteTo prints the lines every executor's report shares: the
// algorithms, the row counts (routed = points - filtered), the plan's
// shape, the phase walls and both balance goals.
func (r *Report) WriteTo(w io.Writer) (int64, error) {
	n, err := fmt.Fprintf(w,
		"strategy=%v local=%v merge=%v\n"+
			"points=%d skyline=%d candidates=%d filtered=%d routed=%d\n"+
			"groups=%d partitions=%d pruned=%d sample=%d filter=%d\n"+
			"preprocess=%v phase2=%v phase3=%v total=%v\n"+
			"inputBalance: %v\n"+
			"candidateBalance: %v\n",
		r.Strategy, r.Local, r.Merge,
		r.Points, r.SkylineSize, r.Candidates, r.Filtered, int64(r.Points)-r.Filtered,
		r.Groups, r.Partitions, r.PrunedPartitions, r.SampleSize, r.FilterRows,
		r.Preprocess.Round(time.Microsecond), r.Phase2.Round(time.Microsecond),
		r.Phase3.Round(time.Microsecond), r.Total.Round(time.Microsecond),
		r.InputBalance(), r.CandidateBalance())
	return int64(n), err
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
	rep := &Report{Strategy: spec.Strategy, Local: spec.Local, Merge: spec.Merge}
	return &driver{spec: spec, ex: ex, rep: rep, tally: tally, start: time.Now()}
}

// Run executes the full three-phase pipeline on ex over an in-memory
// dataset, reading its rows where they lie: learn the rule from the
// dataset's bounds and a sample, map/shuffle/reduce to per-group
// skyline candidates, and merge them into the exact global skyline.
// Map task i reads its cut of the rows through their own views, so rows
// the SZB filter drops are never copied or Z-encoded; only the verify
// pass of a non-transitive relation packs the whole input.
//
// When ctx carries an obs trace (obs.ContextWithTrace), Run emits the
// library's uniform span taxonomy — learn, map, local-skyline, and
// merge/round-1 — under the context's current span, so every substrate
// produces structurally identical trace reports.
func Run(ctx context.Context, spec *Spec, ds *point.Dataset, ex Executor, tally *metrics.Tally) ([]point.Point, *Report, error) {
	d := newDriver(spec, ex, tally)
	if ds == nil || ds.Len() == 0 {
		return nil, d.rep, nil
	}
	return d.run(ctx, memInput{ds})
}

// RunFile is Run over the ZSKY file at path, read in passes so the
// file is never held: pass 1 streams it for its bounds, count and a
// sample of Run's size and draws — a file and its in-memory copy learn
// the same rule — and pass 2 reads the same cuts as Run, one block
// each, mapping them as they arrive a wave of the pool's width at a
// time, so memory holds one wave plus the survivors. A non-transitive
// relation reads the file a third time to verify the candidates. The
// phases, spans and report are Run's.
func RunFile(ctx context.Context, spec *Spec, path string, ex Executor, tally *metrics.Tally) ([]point.Point, *Report, error) {
	return newDriver(spec, ex, tally).run(ctx, fileInput{path})
}

// input is a run's rows as the driver reads them, wherever they lie.
type input interface {
	// scan is phase 1's read: the rows' width, count, bounds and sample.
	scan(ctx context.Context, d *driver) (scanned, error)
	// mapCuts runs the map task of every cut on the pool and gathers
	// the routed rows into their groups in cut order, returning them
	// and the count of rows the tasks dropped.
	mapCuts(ctx context.Context, d *driver, r *Rule, cuts [][2]int) ([]Group, int64, error)
	// each streams every row through f, one block at a time.
	each(spec *Spec, f func(point.Block) error) error
}

// scanned is what phase 1 reads off an input.
type scanned struct {
	dims, n    int
	mins, maxs []float64
	smp        []point.Point
}

// run is the pipeline over in: learn, map and reduce, merge, and
// verify when the relation needs it.
func (d *driver) run(ctx context.Context, in input) ([]point.Point, *Report, error) {
	r, cuts, err := d.learn(ctx, in)
	if err != nil {
		return nil, nil, err
	}
	if r == nil {
		return nil, d.rep, nil
	}
	parts, err := d.phase2(ctx, r, in, cuts)
	if err != nil {
		return nil, nil, err
	}
	return d.mergeAndReport(ctx, r, parts, in)
}

// memInput is an in-memory dataset, read through its row views.
type memInput struct{ ds *point.Dataset }

// scan reads bounds and sample at once on the pool. Task 0 draws the
// sample: sample.Ratio over every row, so its rows and their order are
// the seed's whatever the pool's width, and a file copy learns the same
// rule. The other tasks take the exact bounds of row cuts, reading the
// rows where they lie, and fold in cut order: Dataset.Bounds's strict
// comparisons in its own order, so the result is its result. The same
// pass checks every row's width, so a row that is not Dims wide is a
// *point.WidthError here, before the sample it may sit in is encoded.
func (m memInput) scan(ctx context.Context, d *driver) (scanned, error) {
	pts, pool := m.ds.Points, d.ex.pool()
	sc := scanned{dims: m.ds.Dims, n: len(pts)}
	if sc.n == 0 {
		return sc, nil
	}
	k := min(splitChunks*pool.workers, sc.n)
	mins, maxs, errs := make([][]float64, k), make([][]float64, k), make([]error, k)
	var smpErr error
	err := pool.FanOut(ctx, 1+k, func(i int) {
		if i == 0 {
			sc.smp, smpErr = sample.Ratio(pts, d.spec.SampleRatio, d.spec.Seed)
			return
		}
		lo := (i - 1) * sc.n / k
		cut := point.Dataset{Dims: m.ds.Dims, Points: pts[lo : i*sc.n/k]}
		mins[i-1], maxs[i-1], errs[i-1] = cut.Bounds()
		if we, ok := errs[i-1].(*point.WidthError); ok {
			we.Row += lo
		}
	})
	if err != nil {
		return scanned{}, err
	}
	for _, err := range errs {
		if err != nil {
			return scanned{}, err
		}
	}
	sc.mins, sc.maxs = mins[0], maxs[0]
	for c := 1; c < k; c++ {
		for j, v := range mins[c] {
			if v < sc.mins[j] {
				sc.mins[j] = v
			}
			if w := maxs[c][j]; w > sc.maxs[j] {
				sc.maxs[j] = w
			}
		}
	}
	return sc, smpErr
}

func (m memInput) mapCuts(ctx context.Context, d *driver, r *Rule, cuts [][2]int) ([]Group, int64, error) {
	outs := make([]MapOutput, len(cuts))
	err := d.ex.pool().FanOut(ctx, len(cuts), func(i int) {
		rows := m.ds.Points[cuts[i][0]:cuts[i][1]]
		outs[i] = r.mapRows(ctx, len(rows), func(j int) point.Point { return rows[j] }, d.tally)
	})
	groups, filtered := Shuffle(outs)
	return groups, filtered, err
}

func (m memInput) each(_ *Spec, f func(point.Block) error) error {
	return f(point.BlockOf(m.ds.Dims, m.ds.Points))
}

// fileInput is a ZSKY file, read in passes.
type fileInput struct{ path string }

func (fi fileInput) scan(_ context.Context, d *driver) (in scanned, err error) {
	spec := d.spec
	err = codec.ReadFile(fi.path, func(br *codec.BinaryReader) error {
		k, err := sample.Size(spec.SampleRatio, int(br.Remaining()))
		if err != nil {
			return err
		}
		res, err := sample.NewStream(max(k, 1), spec.Seed)
		if err != nil {
			return err
		}
		in.dims = br.Dims()
		err = br.Blocks(spec.batch, func(b point.Block) error {
			in.mins, in.maxs = b.UpdateBounds(in.mins, in.maxs)
			res.AddBlock(b)
			in.n += b.Len()
			return nil
		})
		in.smp = res.Sample()
		return err
	})
	return in, err
}

// mapCuts gathers each wave's routed rows as soon as its tasks end, so
// the wave's blocks are dropped before the next wave is read.
func (fi fileInput) mapCuts(ctx context.Context, d *driver, r *Rule, cuts [][2]int) ([]Group, int64, error) {
	pool := d.ex.pool()
	var byGid []Group
	var filtered int64
	wave := make([]point.Block, 0, pool.workers)
	flush := func() error {
		got := make([]MapOutput, len(wave))
		err := pool.FanOut(ctx, len(wave), func(i int) {
			got[i] = r.mapRows(ctx, wave[i].Len(), wave[i].Row, d.tally)
		})
		var f int64
		byGid, f = gather(byGid, got)
		filtered += f
		clear(wave)
		wave = wave[:0]
		return err
	}
	n := cuts[len(cuts)-1][1]
	err := codec.ReadFile(fi.path, func(br *codec.BinaryReader) error {
		if br.Remaining() != uint64(n) {
			return fmt.Errorf("plan: %s changed between passes: %d rows, then %d", fi.path, n, br.Remaining())
		}
		return br.Blocks(func(i int) int { return cuts[i][1] - cuts[i][0] }, func(b point.Block) error {
			if wave = append(wave, b); len(wave) < cap(wave) {
				return nil
			}
			return flush()
		})
	})
	if err == nil && len(wave) > 0 {
		err = flush()
	}
	return nonEmpty(byGid), filtered, err
}

func (fi fileInput) each(spec *Spec, f func(point.Block) error) error {
	return codec.ReadFile(fi.path, func(br *codec.BinaryReader) error { return br.Blocks(spec.batch, f) })
}

// learn is phase 1 under the taxonomy's learn span: scan the input for
// its bounds and sample, learn the rule, broadcast it, fill the report,
// and close the span with the taxonomy's attributes. It returns the map
// tasks' cuts, and a nil rule for an empty input.
func (d *driver) learn(ctx context.Context, in input) (*Rule, [][2]int, error) {
	span, ctx := obs.StartSpan(ctx, "learn")
	defer span.End()
	spec, rep := d.spec, d.rep
	sc, err := in.scan(ctx, d)
	if err != nil || sc.n == 0 {
		return nil, nil, err
	}
	r, err := Learn(spec, sc.dims, sc.mins, sc.maxs, sc.smp, d.tally)
	if err != nil {
		return nil, nil, err
	}
	if err := d.ex.Broadcast(ctx, r); err != nil {
		return nil, nil, err
	}
	cuts := spec.cuts(sc.n)
	rep.Preprocess = time.Since(d.start)
	rep.Points = sc.n
	rep.SampleSize = len(sc.smp)
	rep.SampleSkySize = r.skySize
	if r.szb != nil {
		rep.FilterRows = r.szb.Len()
	}
	rep.Groups = r.groups
	rep.Partitions = r.parts
	rep.PrunedPartitions = r.pruned
	span.SetAttr("strategy", spec.Strategy)
	span.SetAttr("points", sc.n)
	span.SetAttr("sample", rep.SampleSize)
	span.SetAttr("sample_skyline", rep.SampleSkySize)
	span.SetAttr("szb_rows", rep.FilterRows)
	span.SetAttr("groups", rep.Groups)
	span.SetAttr("partitions", rep.Partitions)
	span.SetAttr("pruned", rep.PrunedPartitions)
	return r, cuts, nil
}

// mergeAndReport is phase 3 and the close of the report: merge the
// candidates, each group's by position, verify them against the full
// input when the relation needs it, and stamp the run's totals on the
// report and on ctx's current span.
func (d *driver) mergeAndReport(ctx context.Context, r *Rule, parts []Part, in input) ([]point.Point, *Report, error) {
	rep := d.rep
	rep.Candidates = partsLen(parts)
	rep.PerGroupCandidates = perGroup(rep.Groups, parts, Part.len)

	t2 := time.Now()
	sky, err := mergePhase(ctx, d.ex.pool(), r, parts, d.tally)
	if err != nil {
		return nil, nil, err
	}
	if sky, err = d.verify(ctx, r, sky, in); err != nil {
		return nil, nil, err
	}
	rep.Phase3 = time.Since(t2)
	rep.SkylineSize = len(sky)
	rep.Total = time.Since(d.start)
	if sp := obs.SpanFrom(ctx); sp != nil {
		if id := obs.RequestIDFrom(ctx); id != "" {
			sp.SetAttr("request_id", id)
		}
		sp.SetAttr("points", rep.Points)
		sp.SetAttr("skyline", rep.SkylineSize)
		sp.SetAttr("candidates", rep.Candidates)
		sp.SetAttr("input_balance", rep.InputBalance().String())
		sp.SetAttr("candidate_balance", rep.CandidateBalance().String())
	}
	return sky, rep, nil
}

// verify closes the pipeline for non-transitive dominance relations:
// local and merge phases then produce candidate supersets (an
// eliminated point can still dominate a candidate), so every candidate
// is retested against the full input — every row of in, including
// those the mapper filter dropped.
// Elimination cites a real dataset point, which is sound under any
// irreflexive relation; candidates are compacted copies, so their own
// source rows are merely coordinate-equal and never self-eliminate.
// Transitive relations (Pareto included) return sky unchanged and never
// read in.
func (d *driver) verify(ctx context.Context, r *Rule, sky []point.Point, in input) ([]point.Point, error) {
	if r.pareto() || r.caps.Transitive || len(sky) == 0 {
		return sky, nil
	}
	sp, _ := obs.StartSpan(ctx, "verify")
	defer sp.End()
	sp.SetAttr("candidates", len(sky))
	cand := point.BlockOf(r.dims, sky)
	err := in.each(d.spec, func(b point.Block) error {
		cand = cand.Select(seq.FilterRows(r.prov, cand, b, d.tally))
		return nil
	})
	sp.SetAttr("skyline", cand.Len())
	return cand.Points(), err
}

// phase2 is phase 2 (§5.2): the map task of every cut of in runs under
// the taxonomy's map span, and its survivors are gathered into groups;
// what each group receives is recorded, and every group is reduced to
// its skyline candidates, named by position, under the local-skyline
// span.
func (d *driver) phase2(ctx context.Context, r *Rule, in input, cuts [][2]int) ([]Part, error) {
	start := time.Now()
	mapSpan, mctx := obs.StartSpan(ctx, "map")
	mapSpan.SetAttr("tasks", len(cuts))
	groups, filtered, err := in.mapCuts(mctx, d, r, cuts)
	if err != nil {
		mapSpan.End()
		return nil, err
	}
	mapSpan.SetAttr("filtered", filtered)
	mapSpan.End()
	d.rep.Filtered = filtered
	parts, err := reducePhase(ctx, d.ex, r, groups, d.tally)
	if err != nil {
		return nil, err
	}
	d.rep.PerGroupInput = perGroup(d.rep.Groups, parts, func(p Part) int { return p.Group.Len() })
	d.rep.Phase2 = time.Since(start)
	return parts, nil
}

// perGroup sums size over the parts of each gid, over n groups.
func perGroup(n int, parts []Part, size func(Part) int) []int {
	counts := make([]int, n)
	for _, p := range parts {
		if gid := p.Group.Gid; gid >= 0 && gid < n {
			counts[gid] += size(p)
		}
	}
	return counts
}

// reducePhase runs the local-skyline tasks under their taxonomy span
// and returns each group's candidates as its part.
func reducePhase(ctx context.Context, ex Executor, r *Rule, groups []Group, tally *metrics.Tally) ([]Part, error) {
	redSpan, rctx := obs.StartSpan(ctx, "local-skyline")
	defer redSpan.End()
	redSpan.SetAttr("groups", len(groups))
	rows, err := ex.RunReduces(rctx, r, groups, tally)
	if err != nil {
		return nil, err
	}
	parts := make([]Part, len(groups))
	for i, g := range groups {
		parts[i] = Pick(g, rows[i])
	}
	redSpan.SetAttr("candidates", partsLen(parts))
	return parts, nil
}

// MergePhase is phase 3 (§5.3) on ex's pool over every row of the
// candidate groups, as one merge/round-1 span whatever the schedule
// (see LocalExec.merge): a tree per group, each candidate probing the
// others', up to four groups, one tree over every candidate above. tree
// is ignored: it chose pairwise merge rounds, which the probed trees
// replaced. The pipeline runs the same phase on its reduces' positions.
func MergePhase(ctx context.Context, ex *LocalExec, r *Rule, groups []Group, tree bool, tally *metrics.Tally) ([]point.Point, error) {
	return mergePhase(ctx, ex, r, Whole(groups), tally)
}

// mergePhase is MergePhase over candidate parts.
func mergePhase(ctx context.Context, ex *LocalExec, r *Rule, parts []Part, tally *metrics.Tally) ([]point.Point, error) {
	if len(parts) == 0 {
		return nil, nil
	}
	sp, mctx := obs.StartSpan(ctx, "merge/round-1")
	defer sp.End()
	sp.SetAttr("groups", len(parts))
	out, err := ex.merge(mctx, r, parts, tally)
	if err != nil {
		return nil, err
	}
	sp.SetAttr("skyline", len(out))
	return out, nil
}
