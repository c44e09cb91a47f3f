package plan_test

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"zskyline/internal/codec"
	"zskyline/internal/plan"
	"zskyline/internal/point"
)

// Run executes the paper's three-phase pipeline on any Executor; the
// shared-memory LocalExec is the simplest substrate. The same Spec on
// the TCP coordinator yields the same skyline — the phase semantics
// live in plan, the Executor only decides placement and fault handling.
func ExampleRun() {
	ds, err := point.NewDataset(2, []point.Point{
		{1, 9}, {2, 2}, {9, 1}, {5, 5}, {3, 8}, {8, 3}, {4, 4}, {6, 7},
	})
	if err != nil {
		fmt.Println("dataset:", err)
		return
	}
	spec := &plan.Spec{
		Strategy: plan.ZDG, Local: plan.ZS, Merge: plan.MergeZM,
		M: 2, Delta: 2, SampleRatio: 1, Bits: 8, Seed: 1,
	}
	sky, _, err := plan.Run(context.Background(), spec, ds, plan.NewLocalExec(2), nil)
	if err != nil {
		fmt.Println("run:", err)
		return
	}
	sort.Slice(sky, func(i, j int) bool { return sky[i][0] < sky[j][0] })
	for _, p := range sky {
		fmt.Println(p)
	}
	// Output:
	// (1, 9)
	// (2, 2)
	// (9, 1)
}

// RunFile drives the same pipeline over a ZSKY file, read in passes, so
// the dataset never has to exist as one []point.Point in memory.
func ExampleRunFile() {
	ds, err := point.NewDataset(2, []point.Point{{1, 9}, {2, 2}, {9, 1}, {5, 5}, {3, 8}, {8, 3}})
	if err != nil {
		fmt.Println("dataset:", err)
		return
	}
	dir, err := os.MkdirTemp("", "runfile")
	if err != nil {
		fmt.Println("tempdir:", err)
		return
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "points.zsky")
	f, err := os.Create(path)
	if err != nil {
		fmt.Println("create:", err)
		return
	}
	if err := codec.WriteBinary(f, ds); err != nil {
		fmt.Println("write:", err)
		return
	}
	f.Close()
	spec := &plan.Spec{
		Strategy: plan.ZDG, Local: plan.ZS, Merge: plan.MergeZM,
		M: 2, Delta: 2, SampleRatio: 1, Bits: 8, Seed: 1, ChunkSize: 2,
	}
	sky, _, err := plan.RunFile(context.Background(), spec, path, plan.NewLocalExec(2), nil)
	if err != nil {
		fmt.Println("run:", err)
		return
	}
	sort.Slice(sky, func(i, j int) bool { return sky[i][0] < sky[j][0] })
	fmt.Println(len(sky), "skyline points:", sky)
	// Output:
	// 3 skyline points: [(1, 9) (2, 2) (9, 1)]
}
