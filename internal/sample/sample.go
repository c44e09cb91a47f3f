// Package sample implements reservoir sampling (Vitter's Algorithm R),
// the preprocessing step the paper's master node uses to learn the
// data partitioning rule from a small unbiased sample (§5.1).
package sample

import (
	"fmt"
	"math/rand"

	"zskyline/internal/point"
)

// Reservoir draws a uniform sample of size k from pts without
// replacement, deterministically for a given seed. If k >= len(pts)
// the whole input is returned (copied). k <= 0 yields an empty sample.
func Reservoir(pts []point.Point, k int, seed int64) []point.Point {
	if k <= 0 {
		return nil
	}
	if k >= len(pts) {
		out := make([]point.Point, len(pts))
		copy(out, pts)
		return out
	}
	r := rand.New(rand.NewSource(seed))
	out := make([]point.Point, k)
	copy(out, pts[:k])
	for i := k; i < len(pts); i++ {
		j := r.Intn(i + 1)
		if j < k {
			out[j] = pts[i]
		}
	}
	return out
}

// Ratio samples Size(ratio, len(pts)) points, the way the paper's
// experiments specify sampling percentages (§6.6, 0.5%–4%).
func Ratio(pts []point.Point, ratio float64, seed int64) ([]point.Point, error) {
	k, err := Size(ratio, len(pts))
	if err != nil || k == 0 {
		return nil, err
	}
	return Reservoir(pts, k, seed), nil
}

// Size is how many of n points a ratio samples: floor(ratio * n), and
// at least one from a non-empty input so the learned rule is never
// degenerate.
func Size(ratio float64, n int) (int, error) {
	if ratio <= 0 || ratio > 1 {
		return 0, fmt.Errorf("sample: ratio must be in (0,1], got %v", ratio)
	}
	if n == 0 {
		return 0, nil
	}
	return max(1, int(ratio*float64(n))), nil
}

// Stream is an online reservoir: feed points one batch at a time and
// read a uniform k-sample of everything seen so far. This is how a
// dataset that is never held in memory is sampled. Its draws are
// Reservoir's, so streaming a dataset in any batches samples the same
// points Reservoir picks from it whole.
type Stream struct {
	k    int
	seen int64
	rng  *rand.Rand
	res  []point.Point
}

// NewStream creates a streaming reservoir of capacity k.
func NewStream(k int, seed int64) (*Stream, error) {
	if k < 1 {
		return nil, fmt.Errorf("sample: reservoir capacity must be positive, got %d", k)
	}
	return &Stream{k: k, rng: rand.New(rand.NewSource(seed))}, nil
}

// AddBlock feeds every row of a block through Vitter's Algorithm R.
// Admitted rows are copied out of the block, so a long-lived reservoir never pins a transient block's
// whole backing array.
func (s *Stream) AddBlock(b point.Block) {
	rows := b.Len()
	for i := 0; i < rows; i++ {
		s.seen++
		if len(s.res) < s.k {
			s.res = append(s.res, b.Row(i).Clone())
			continue
		}
		if j := s.rng.Intn(int(s.seen)); j < s.k {
			s.res[j] = b.Row(i).Clone()
		}
	}
}

// Seen returns how many points have been offered.
func (s *Stream) Seen() int64 { return s.seen }

// Sample returns a copy of the current reservoir.
func (s *Stream) Sample() []point.Point {
	out := make([]point.Point, len(s.res))
	copy(out, s.res)
	return out
}
