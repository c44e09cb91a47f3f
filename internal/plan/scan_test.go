package plan

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"zskyline/internal/gen"
	"zskyline/internal/point"
	"zskyline/internal/sample"
)

// Phase 1 reads bounds and sample at once on the pool. Whatever the
// pool's width, an in-memory scan returns Dataset.Bounds's bounds and
// sample.Ratio's sample (the same rows, in the same order), and a ZSKY
// copy of the rows scans to the same numbers and learns the same rule.
func TestPoolScanMatchesSerial(t *testing.T) {
	all := gen.Synthetic(gen.Correlated, 120000, 8, 11)
	spec := validSpec()
	spec.SampleRatio, spec.Seed = 0.02, 42
	for _, n := range []int{1, 5, 120000} {
		ds := &point.Dataset{Dims: all.Dims, Points: all.Points[:n]}
		mins, maxs, err := ds.Bounds()
		if err != nil {
			t.Fatal(err)
		}
		smp, err := sample.Ratio(ds.Points, spec.SampleRatio, spec.Seed)
		if err != nil {
			t.Fatal(err)
		}
		path := writeZSKY(t, ds)
		for _, w := range []int{1, 2, 7} {
			label := fmt.Sprintf("n=%d width=%d", n, w)
			d := newDriver(spec, NewLocalExec(w), nil)
			mem, err := memInput{ds}.scan(context.Background(), d)
			if err != nil {
				t.Fatal(err)
			}
			if mem.dims != ds.Dims || mem.n != n || !slices.Equal(mem.mins, mins) || !slices.Equal(mem.maxs, maxs) {
				t.Errorf("%s: scanned %d×%d rows in [%v, %v], want %d×%d in [%v, %v]",
					label, mem.n, mem.dims, mem.mins, mem.maxs, n, ds.Dims, mins, maxs)
			}
			if len(mem.smp) != len(smp) {
				t.Fatalf("%s: sample of %d rows, want %d", label, len(mem.smp), len(smp))
			}
			for i := range smp {
				if &mem.smp[i][0] != &smp[i][0] {
					t.Fatalf("%s: sample row %d is %v, want the input's row %v", label, i, mem.smp[i], smp[i])
				}
			}
			file, err := fileInput{path}.scan(context.Background(), d)
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(file) != fmt.Sprint(mem) {
				t.Errorf("%s: the file scans to %v, the rows to %v", label, file, mem)
			}
			fromMem, err := Learn(spec, mem.dims, mem.mins, mem.maxs, mem.smp, nil)
			if err != nil {
				t.Fatal(err)
			}
			fromFile, err := Learn(spec, file.dims, file.mins, file.maxs, file.smp, nil)
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(fromMem.pivots, fromMem.groupOf, fromMem.skySize) != fmt.Sprint(fromFile.pivots, fromFile.groupOf, fromFile.skySize) {
				t.Errorf("%s: the file learns pivots %v and groups %v, the rows %v and %v",
					label, fromFile.pivots, fromFile.groupOf, fromMem.pivots, fromMem.groupOf)
			}
		}
	}
}
