// Quickstart: generate a synthetic dataset, run the default parallel
// skyline pipeline, and print the report — the smallest end-to-end use
// of the public API.
package main

import (
	"context"
	"fmt"
	"log"

	"zskyline"
)

func main() {
	// 100k anti-correlated points in 5 dimensions: the hard case, where
	// skylines are large and naive merging is expensive.
	ds := zskyline.Generate(zskyline.AntiCorrelated, 100_000, 5, 42)

	cfg := zskyline.Defaults() // ZDG partitioning + Z-search + Z-merge
	eng, err := zskyline.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	sky, report, err := eng.Skyline(context.Background(), ds)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("input points:       %d\n", ds.Len())
	fmt.Printf("skyline points:     %d\n", len(sky))
	fmt.Printf("candidates merged:  %d\n", report.Candidates)
	fmt.Printf("filtered by mapper: %d\n", report.Filtered)
	fmt.Printf("groups / partitions: %d / %d\n", report.Groups, report.Partitions)
	fmt.Printf("preprocess %v | compute %v | merge %v | total %v\n",
		report.Preprocess.Round(1000), report.Phase2.Round(1000),
		report.Phase3.Round(1000), report.Total.Round(1000))
	fmt.Printf("routed to groups:   %d\n", int64(ds.Len())-report.Filtered)

	// Spot-check three skyline points.
	for i, p := range sky {
		if i == 3 {
			break
		}
		fmt.Printf("  skyline[%d] = %v\n", i, p)
	}
}
