package plan

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"zskyline/internal/codec"
	"zskyline/internal/dominance"
	"zskyline/internal/gen"
	"zskyline/internal/metrics"
	"zskyline/internal/point"
)

// A cancelled context must stop task admission: with a single-worker
// pool and a task that cancels the context, tasks queued behind it
// must never be dispatched.
func TestLocalExecStopsAdmissionOnCancel(t *testing.T) {
	ex := NewLocalExec(1)
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int64
	err := ex.FanOut(ctx, 100, func(i int) {
		ran.Add(1)
		if i == 0 {
			cancel()
		}
	})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// Task 0 ran and cancelled; admission may already have committed a
	// small number of follow-ups racing the cancel, but nothing close
	// to the full fan-out.
	if n := ran.Load(); n == 0 || n > 10 {
		t.Errorf("%d tasks ran after cancellation, want a handful at most", n)
	}
}

// A panicking task must surface as an error on the calling goroutine,
// not kill the process, and must not wedge the pool.
func TestLocalExecRecoversPanic(t *testing.T) {
	ex := NewLocalExec(4)
	err := ex.FanOut(context.Background(), 8, func(i int) {
		if i == 5 {
			panic("boom")
		}
	})
	if err == nil || !strings.Contains(err.Error(), "task 5 panicked: boom") {
		t.Fatalf("err = %v, want task-5 panic error", err)
	}
	// The pool is reusable after a panic.
	if err := ex.FanOut(context.Background(), 4, func(int) {}); err != nil {
		t.Fatalf("pool wedged after panic: %v", err)
	}
}

// writeZSKY writes ds to a ZSKY file under t's temporary directory and
// returns its path.
func writeZSKY(t testing.TB, ds *point.Dataset) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "in.zsky")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := codec.WriteBinary(f, ds); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// RunFile over a ZSKY copy of a dataset learns the same rule from the
// same sample and maps the same cuts as Run over the dataset, so it
// returns the same skyline and the same report numbers.
func TestRunFileMatchesRun(t *testing.T) {
	const n, d, seed = 3000, 4, 17
	ds := gen.Synthetic(gen.AntiCorrelated, n, d, seed)
	path := writeZSKY(t, ds)
	for _, chunk := range []int{0, 700} { // MapTasks cuts, and ChunkSize cuts over several waves
		spec := validSpec()
		spec.ChunkSize = chunk
		want, wantRep, err := Run(context.Background(), spec, ds, NewLocalExec(4), nil)
		if err != nil {
			t.Fatal(err)
		}
		got, rep, err := RunFile(context.Background(), spec, path, NewLocalExec(2), nil)
		if err != nil {
			t.Fatal(err)
		}
		sameSet(t, got, want, fmt.Sprintf("chunk=%d", chunk))
		if rep.SampleSize != wantRep.SampleSize || rep.SampleSkySize != wantRep.SampleSkySize ||
			rep.Groups != wantRep.Groups || rep.Filtered != wantRep.Filtered ||
			rep.Candidates != wantRep.Candidates || rep.SkylineSize != len(want) ||
			fmt.Sprint(rep.PerGroupInput) != fmt.Sprint(wantRep.PerGroupInput) {
			t.Errorf("chunk=%d: file report %+v, in-memory %+v", chunk, rep, wantRep)
		}
	}
	// An empty file is an empty result, not an error; a missing one is
	// an error.
	empty, err := point.NewDataset(3, nil)
	if err != nil {
		t.Fatal(err)
	}
	sky, rep, err := RunFile(context.Background(), validSpec(), writeZSKY(t, empty), NewLocalExec(2), nil)
	if err != nil || sky != nil || rep == nil {
		t.Errorf("empty file: %v %v %v", sky, rep, err)
	}
	if _, _, err := RunFile(context.Background(), validSpec(), filepath.Join(t.TempDir(), "nope.zsky"), NewLocalExec(2), nil); err == nil {
		t.Error("missing file accepted")
	}
}

// A file pass gathers each wave's routed rows into groups that grow
// across waves, and those groups are the in-memory gather's row for
// row, Z-column included, whatever the pool's width and so the waves'.
// The whole run prints the in-memory run's count line.
func TestRunFileGathersLikeRun(t *testing.T) {
	ds := gen.Synthetic(gen.AntiCorrelated, 16384, 8, 42)
	path := writeZSKY(t, ds)
	spec := &Spec{Strategy: ZDG, Local: ZS, Merge: MergeZM, M: 8, Delta: 4,
		SampleRatio: 0.02, Bits: 16, ChunkSize: 512}
	ctx := context.Background()
	gathered := func(in input, ex *LocalExec) ([]Group, int64) {
		t.Helper()
		d := newDriver(spec, ex, nil)
		r, cuts, err := d.learn(ctx, in)
		if err != nil {
			t.Fatal(err)
		}
		groups, filtered, err := in.mapCuts(ctx, d, r, cuts)
		if err != nil {
			t.Fatal(err)
		}
		return groups, filtered
	}
	countLine := func(rep *Report) string {
		var b strings.Builder
		if _, err := rep.WriteTo(&b); err != nil {
			t.Fatal(err)
		}
		return strings.Split(b.String(), "\n")[1]
	}
	want, wantFiltered := gathered(memInput{ds}, NewLocalExec(2))
	if len(want) < 2 || wantFiltered == 0 {
		t.Fatalf("in memory: %d groups, %d rows filtered: nothing to compare", len(want), wantFiltered)
	}
	_, wantRep, err := Run(ctx, spec, ds, NewLocalExec(2), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, width := range []int{1, 3} {
		got, filtered := gathered(fileInput{path}, NewLocalExec(width))
		if len(got) != len(want) || filtered != wantFiltered {
			t.Fatalf("width %d: %d groups, %d filtered; in memory %d, %d", width, len(got), filtered, len(want), wantFiltered)
		}
		for i, g := range got {
			w := want[i]
			if g.Gid != w.Gid || g.ZCol.Len() != g.Len() ||
				string(mustBinary(t, g.Block)) != string(mustBinary(t, w.Block)) ||
				string(mustBinary(t, g.ZCol)) != string(mustBinary(t, w.ZCol)) {
				t.Fatalf("width %d: group %d (%d rows, %d addresses) differs from memory's group %d (%d rows)",
					width, g.Gid, g.Len(), g.ZCol.Len(), w.Gid, w.Len())
			}
		}
		_, rep, err := RunFile(ctx, spec, path, NewLocalExec(width), nil)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := countLine(rep), countLine(wantRep); got != want {
			t.Errorf("width %d: file run prints %q, in memory %q", width, got, want)
		}
	}
}

// Under k-dominance, which is not transitive, the SZB filter still
// drops rows, and only a verify pass that reads them back from the file
// returns the exact answer.
func TestRunFileVerifiesAgainstTheWholeFile(t *testing.T) {
	ds := gen.Synthetic(gen.AntiCorrelated, 2000, 4, 5)
	spec := validSpec()
	spec.Dominance = dominance.Descriptor{Kind: dominance.KindKDom, K: 3}
	prov, err := spec.Dominance.Provider()
	if err != nil {
		t.Fatal(err)
	}
	tal := &metrics.Tally{}
	got, _, err := RunFile(context.Background(), spec, writeZSKY(t, ds), NewLocalExec(3), tal)
	if err != nil {
		t.Fatal(err)
	}
	if tal.Snapshot().PointsPruned == 0 {
		t.Fatal("the filter dropped nothing, so the test proves nothing")
	}
	sameSet(t, got, dominance.BruteForce(prov, ds.Points), "kdom file")
}
