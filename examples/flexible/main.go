// Flexible: the same dataset and the same pipeline under four
// different dominance relations. A hotel-style trade-off query is run
// with classic Pareto dominance, F-dominance (a family of weighted-sum
// scoring functions encoding "price matters at least as much as
// distance"), k-dominance (a stricter relation that shrinks
// unmanageable high-dimensional skylines), and robust dominance (a
// margin that ignores wins smaller than measurement noise). Each
// variant runs on the in-process engine AND on real TCP workers and is
// checked against the sequential reference — one descriptor, every
// executor, identical answers.
package main

import (
	"context"
	"fmt"
	"log"

	"zskyline"
	"zskyline/internal/dist"
)

func main() {
	// 8000 five-criteria records, anti-correlated — the adversarial
	// regime where the Pareto skyline balloons.
	ds := zskyline.Generate(zskyline.AntiCorrelated, 8_000, 5, 7)

	// Two real worker processes on loopback; the coordinator's rule
	// broadcast carries the dominance descriptor, so the workers never
	// need to be told which relation a query uses.
	var addrs []string
	for i := 0; i < 2; i++ {
		ws, err := dist.StartWorker("127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		defer ws.Close()
		addrs = append(addrs, ws.Addr())
	}

	variants := []struct {
		spelling string
		why      string
	}{
		{"pareto", "the classic skyline"},
		{"flex:1,1,1,1,1;3,1,1,1,1", "scoring functions weight criterion 1 (price) 1x-3x"},
		{"kdom:4", "no worse on any 4 of 5 criteria"},
		{"robust:0.05", "wins below 0.05 are treated as noise"},
	}

	for _, v := range variants {
		desc, err := zskyline.ParseDominance(v.spelling)
		if err != nil {
			log.Fatal(err)
		}

		// The oracle: the sequential reference under this relation.
		want, err := zskyline.SkylineUnder(desc, ds.Points)
		if err != nil {
			log.Fatal(err)
		}

		// The in-process engine under the same descriptor.
		cfg := zskyline.Defaults()
		cfg.M = 16
		cfg.Dominance = desc
		eng, err := zskyline.New(cfg)
		if err != nil {
			log.Fatal(err)
		}
		core, _, err := eng.Skyline(context.Background(), ds)
		if err != nil {
			log.Fatal(err)
		}

		// The real TCP deployment under the same descriptor.
		dcfg := dist.DefaultCoordinatorConfig()
		dcfg.M = 16
		dcfg.Dominance = desc
		coord, err := dist.NewCoordinator(dcfg, addrs)
		if err != nil {
			log.Fatal(err)
		}
		tcp, _, err := coord.Skyline(context.Background(), ds)
		coord.Close()
		if err != nil {
			log.Fatal(err)
		}

		if len(core) != len(want) || len(tcp) != len(want) {
			log.Fatalf("%s: executors disagree: seq=%d core=%d tcp=%d",
				v.spelling, len(want), len(core), len(tcp))
		}
		fmt.Printf("%-26s %5d points   (%s)\n", v.spelling, len(want), v.why)
	}

	// The relations are not interchangeable filters; they reshape the
	// answer. Flex returns a subset of the Pareto skyline, robust a
	// superset, and kdom cuts hardest of all — which is why the
	// capability flags, not the kernels, decide what pruning is sound.
	pareto, _ := zskyline.ParseDominance("pareto")
	robust, _ := zskyline.ParseDominance("robust:0.05")
	p, _ := zskyline.SkylineUnder(pareto, ds.Points)
	r, _ := zskyline.SkylineUnder(robust, ds.Points)
	fmt.Printf("\nrobust keeps every Pareto point plus %d near-ties the "+
		"margin refuses to discard\n", len(r)-len(p))
}
