package partition

import (
	"fmt"
	"sort"

	"zskyline/internal/point"
	"zskyline/internal/zorder"
)

// Info describes one Z-curve partition as learned from the sample; it
// is the unit the grouping algorithms of §4.2/§4.3 operate on.
type Info struct {
	ID int
	// Interval is the RZ-region of the partition's full Z-address
	// interval [lo, hi], derived from the pivots. Every real data point
	// routed to this partition lies inside it, so it is the region
	// partition pruning must use.
	Interval zorder.Region
	// Extent is the minimum bounding rectangle (componentwise grid
	// min/max) of the partition's actual sample points — a tight
	// estimate used for dominance volumes and pruning witnesses. It is
	// deliberately tighter than the RZ-region of the sample's boundary
	// Z-addresses: the volume signal of §4.3 needs real geometry, and
	// MBR containment of every sample point keeps pruning sound.
	Extent zorder.Region
	// Count is the number of sample points in the partition.
	Count int
	// SkyCount is the number of sample *skyline* points in the
	// partition (the straggler signal of §4.2).
	SkyCount int
}

// ZCurve partitions data by cutting the Z-order curve at pivot
// addresses chosen as equal-frequency quantiles of the sample, the
// paper's §4.1 scheme: each of the m partitions receives roughly
// |sample|/m sample points, independent of dimensionality.
type ZCurve struct {
	enc    *zorder.Encoder
	pivots []zorder.ZAddr // m-1 sorted inner boundaries
	infos  []Info
}

// NewZCurve learns a Z-curve partitioner with m partitions from
// sample. sky is the sample's skyline, computed once by the caller; it
// fills the per-partition skyline counts.
func NewZCurve(enc *zorder.Encoder, sample, sky []point.Point, m int) (*ZCurve, error) {
	if len(sample) == 0 {
		return nil, fmt.Errorf("partition: zcurve needs a non-empty sample")
	}
	if m < 1 {
		return nil, fmt.Errorf("partition: need at least one partition, got %d", m)
	}
	// One bulk columnar encode of the sample; the sort permutes row
	// indices over the shared column instead of shuffling addresses.
	zc := enc.EncodeBlock(zorder.ZCol{}, point.BlockOf(enc.Dims(), sample))
	perm := make([]int, zc.Len())
	for i := range perm {
		perm[i] = i
	}
	sort.Slice(perm, func(i, j int) bool { return zc.Compare(perm[i], perm[j]) < 0 })
	z := &ZCurve{enc: enc}
	for c := 1; c < m; c++ {
		// Pivots outlive the column, so they own their storage.
		z.pivots = append(z.pivots, zc.At(perm[c*len(perm)/m]).Clone())
	}
	z.dedupePivots()
	z.buildInfos(sample, sky)
	return z, nil
}

// dedupePivots collapses equal pivots (possible when many sample
// points share one Z-address); partitions must be non-degenerate.
func (z *ZCurve) dedupePivots() {
	out := z.pivots[:0]
	for i, p := range z.pivots {
		if i == 0 || zorder.Compare(out[len(out)-1], p) < 0 {
			out = append(out, p)
		}
	}
	z.pivots = out
}

// buildInfos recomputes per-partition sample statistics and regions.
func (z *ZCurve) buildInfos(sample, sky []point.Point) {
	n := len(z.pivots) + 1
	z.infos = make([]Info, n)
	type ext struct {
		lo, hi []uint32
	}
	extents := make([]*ext, n)
	for i := range z.infos {
		z.infos[i].ID = i
		z.infos[i].Interval = z.intervalRegion(i)
	}
	g := make([]uint32, z.enc.Dims())
	a := make(zorder.ZAddr, z.enc.Words())
	for _, p := range sample {
		z.enc.EncodeInto(a, g, p)
		id := z.assignAddr(a)
		z.infos[id].Count++
		if extents[id] == nil {
			lo := append([]uint32(nil), g...)
			hi := append([]uint32(nil), g...)
			extents[id] = &ext{lo: lo, hi: hi}
		} else {
			for d, v := range g {
				if v < extents[id].lo[d] {
					extents[id].lo[d] = v
				}
				if v > extents[id].hi[d] {
					extents[id].hi[d] = v
				}
			}
		}
	}
	for _, p := range sky {
		z.enc.EncodeInto(a, g, p)
		z.infos[z.assignAddr(a)].SkyCount++
	}
	for i := range z.infos {
		if extents[i] != nil {
			z.infos[i].Extent = zorder.Region{MinG: extents[i].lo, MaxG: extents[i].hi}
		} else {
			z.infos[i].Extent = z.infos[i].Interval
		}
	}
}

// intervalRegion computes the RZ-region of partition i's full
// Z-interval, using the curve's global endpoints for the outer
// partitions.
func (z *ZCurve) intervalRegion(i int) zorder.Region {
	lo := make(zorder.ZAddr, z.enc.Words())
	if i > 0 {
		lo = z.pivots[i-1]
	}
	var hi zorder.ZAddr
	if i < len(z.pivots) {
		hi = z.pivots[i]
	} else {
		hi = make(zorder.ZAddr, z.enc.Words())
		for b := 0; b < z.enc.TotalBits(); b++ {
			hi[b/64] |= 1 << uint(63-b%64)
		}
	}
	return z.enc.RegionOf(lo, hi)
}

// Name implements Partitioner.
func (z *ZCurve) Name() string { return "zcurve" }

// N implements Partitioner.
func (z *ZCurve) N() int { return len(z.pivots) + 1 }

// Assign implements Partitioner via binary search over the pivots
// (Algorithm 3's searchPT step).
func (z *ZCurve) Assign(p point.Point) int {
	return z.assignAddr(z.enc.Encode(p))
}

func (z *ZCurve) assignAddr(a zorder.ZAddr) int {
	return sort.Search(len(z.pivots), func(i int) bool {
		return zorder.Compare(a, z.pivots[i]) < 0
	})
}

// Encoder returns the encoder the partitioner quantizes with.
func (z *ZCurve) Encoder() *zorder.Encoder { return z.enc }

// Infos returns the per-partition sample statistics, in partition
// order. Callers must not mutate the returned slice.
func (z *ZCurve) Infos() []Info { return z.infos }

// Redistribute implements the redistribute() step of Algorithms 1 and
// 2: every partition holding more than maxSky sample skyline points is
// split at the Z-addresses of its sample skyline quantiles, so the
// greedy grouping can spread skyline load. sky is the skyline of
// sample. A new partitioner is returned; the receiver is unchanged.
func (z *ZCurve) Redistribute(sample, sky []point.Point, maxSky int) *ZCurve {
	if maxSky < 1 {
		maxSky = 1
	}
	// One bulk encode of the sample skyline; partitions hold row
	// indices into the shared column.
	skyZ := z.enc.EncodeBlock(zorder.ZCol{}, point.BlockOf(z.enc.Dims(), sky))
	perPart := make(map[int][]int)
	for i := 0; i < skyZ.Len(); i++ {
		id := z.assignAddr(skyZ.At(i))
		perPart[id] = append(perPart[id], i)
	}
	newPivots := append([]zorder.ZAddr(nil), z.pivots...)
	for _, rows := range perPart {
		if len(rows) <= maxSky {
			continue
		}
		sort.Slice(rows, func(i, j int) bool { return skyZ.Compare(rows[i], rows[j]) < 0 })
		parts := (len(rows) + maxSky - 1) / maxSky
		for c := 1; c < parts; c++ {
			// New pivots outlive the column: clone out of the arena.
			newPivots = append(newPivots, skyZ.At(rows[c*len(rows)/parts]).Clone())
		}
	}
	sort.Slice(newPivots, func(i, j int) bool { return zorder.Compare(newPivots[i], newPivots[j]) < 0 })
	nz := &ZCurve{enc: z.enc, pivots: newPivots}
	nz.dedupePivots()
	nz.buildInfos(sample, sky)
	return nz
}

// Pivots returns copies of the curve's inner cut addresses, in order —
// what a coordinator broadcasts to remote workers.
func (z *ZCurve) Pivots() []zorder.ZAddr {
	out := make([]zorder.ZAddr, len(z.pivots))
	for i, p := range z.pivots {
		out[i] = p.Clone()
	}
	return out
}
