package seq

import (
	"zskyline/internal/dominance"
	"zskyline/internal/metrics"
	"zskyline/internal/point"
)

// Provider-aware forms of the centralized kernels. The classic Pareto
// relation routes to the hardcoded fast paths above; every other
// provider goes through the generic kernels of package dominance.
// SkylineUnder is the sequential reference implementation that the
// parallel and distributed executors are required to reproduce
// exactly, provider by provider.

// SkylineUnder computes the exact provider skyline of pts on a single
// worker. tally may be nil.
func SkylineUnder(prov dominance.Provider, pts []point.Point, tally *metrics.Tally) []point.Point {
	if dominance.IsPareto(prov) {
		return SB(pts, tally)
	}
	return dominance.Skyline(prov, pts, tally)
}
