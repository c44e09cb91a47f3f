package partition

import (
	"cmp"
	"fmt"
	"slices"
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

// Sample is a sample as Z-curve partitioning reads it, encoded and
// sorted into Z-order once by EncodeSample: the rows, each row's
// Z-address and grid cell, and the Z-addresses of the sample's
// skyline. Learning, redistributing and the per-partition statistics
// all read these columns; none re-encodes or re-sorts a row.
type Sample struct {
	// Rows holds the sample's rows in Z-order, for the caller's skyline
	// search, which then has nothing left to sort.
	Rows point.Block
	// Z holds one address per row of Rows, ascending.
	Z zorder.ZCol
	// Grid holds the grid cell of every row of Rows, Dims() per row.
	Grid []uint32
	// SkyZ holds one address per row of the sample's skyline.
	SkyZ zorder.ZCol
}

// EncodeSample encodes sample, sorts it into Z-order (rows of equal
// address keep their order) and encodes its skyline sky. sky may be
// nil for a caller that searches the sorted rows and fills SkyZ itself.
func EncodeSample(enc *zorder.Encoder, sample, sky []point.Point) Sample {
	n, d, w := len(sample), enc.Dims(), enc.Words()
	z := zorder.ZCol{Words: w, Data: make([]uint64, n*w)}
	g := make([]uint32, d)
	order := make([]int, n)
	for i, p := range sample {
		enc.EncodeGridInto(z.At(i), enc.GridInto(g, p))
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int { return cmp.Or(z.Compare(a, b), cmp.Compare(a, b)) })
	s := Sample{
		Rows: point.Block{Dims: d, Data: make([]float64, 0, n*d)},
		Z:    zorder.ZCol{Words: w, Data: make([]uint64, 0, n*w)},
		Grid: make([]uint32, n*d),
		SkyZ: enc.EncodeBlock(zorder.ZCol{}, point.BlockOf(d, sky)),
	}
	for k, i := range order {
		s.Rows.Data = append(s.Rows.Data, sample[i]...)
		s.Z.AppendRow(z, i)
		enc.GridInto(s.Grid[k*d:(k+1)*d], sample[i])
	}
	return s
}

// ZCurve partitions data by cutting the Z-order curve at pivot
// addresses chosen as equal-frequency quantiles of the sample, the
// paper's §4.1 scheme: each of the m partitions receives roughly
// |sample|/m sample points, independent of dimensionality.
type ZCurve struct {
	enc    *zorder.Encoder
	smp    Sample
	pivots []zorder.ZAddr // m-1 sorted inner boundaries
	infos  []Info         // built by the first Infos call
}

// NewZCurve learns a Z-curve partitioner with m partitions from the
// sample s, which EncodeSample sorted, and whose skyline fills the
// per-partition skyline counts.
func NewZCurve(enc *zorder.Encoder, s Sample, m int) (*ZCurve, error) {
	n := s.Z.Len()
	if n == 0 {
		return nil, fmt.Errorf("partition: zcurve needs a non-empty sample")
	}
	if m < 1 {
		return nil, fmt.Errorf("partition: need at least one partition, got %d", m)
	}
	for i := 1; i < n; i++ {
		if s.Z.Compare(i-1, i) > 0 {
			return nil, fmt.Errorf("partition: zcurve sample is not in Z-order at row %d", i)
		}
	}
	z := &ZCurve{enc: enc, smp: s}
	for c := 1; c < m; c++ {
		// Pivots outlive the column, so they own their storage.
		z.pivots = append(z.pivots, s.Z.At(c*n/m).Clone())
	}
	z.dedupePivots()
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

// buildInfos computes per-partition sample statistics and regions from
// the encoded sample.
func (z *ZCurve) buildInfos() {
	n, d := len(z.pivots)+1, z.enc.Dims()
	z.infos = make([]Info, n)
	for i := range z.infos {
		z.infos[i].ID = i
		z.infos[i].Interval = z.intervalRegion(i)
	}
	for row := 0; row < z.smp.Z.Len(); row++ {
		in := &z.infos[z.assignAddr(z.smp.Z.At(row))]
		g := z.smp.Grid[row*d : (row+1)*d]
		if in.Count == 0 {
			in.Extent = zorder.Region{MinG: slices.Clone(g), MaxG: slices.Clone(g)}
		} else {
			for k, v := range g {
				in.Extent.MinG[k] = min(in.Extent.MinG[k], v)
				in.Extent.MaxG[k] = max(in.Extent.MaxG[k], v)
			}
		}
		in.Count++
	}
	for row := 0; row < z.smp.SkyZ.Len(); row++ {
		z.infos[z.assignAddr(z.smp.SkyZ.At(row))].SkyCount++
	}
	for i := range z.infos {
		if z.infos[i].Count == 0 {
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

// N returns the partition count.
func (z *ZCurve) N() int { return len(z.pivots) + 1 }

// Assign returns p's partition by binary search over the pivots
// (Algorithm 3's searchPT step).
func (z *ZCurve) Assign(p point.Point) int {
	return z.assignAddr(z.enc.Encode(p))
}

func (z *ZCurve) assignAddr(a zorder.ZAddr) int {
	return sort.Search(len(z.pivots), func(i int) bool {
		return zorder.Compare(a, z.pivots[i]) < 0
	})
}

// Infos returns the per-partition sample statistics, in partition
// order. The first call assigns the sample to the partitions and the
// later ones return its result, so a curve that is only redistributed
// never pays for it; a curve is not safe for concurrent first calls.
// Callers must not mutate the returned slice.
func (z *ZCurve) Infos() []Info {
	if z.infos == nil {
		z.buildInfos()
	}
	return z.infos
}

// Redistribute implements the redistribute() step of Algorithms 1 and
// 2: every partition holding more than maxSky sample skyline points is
// split at the Z-addresses of its sample skyline quantiles, so the
// greedy grouping can spread skyline load; the algorithms cap a
// partition at |sample skyline|/M, and a cap below 1 counts as 1. A
// new partitioner over the same encoded sample is returned; the
// receiver is unchanged.
func (z *ZCurve) Redistribute(maxSky int) *ZCurve {
	if maxSky < 1 {
		maxSky = 1
	}
	skyZ := z.smp.SkyZ
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
	nz := &ZCurve{enc: z.enc, smp: z.smp, pivots: newPivots}
	nz.dedupePivots()
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
