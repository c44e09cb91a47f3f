// Package window maintains the skyline of the most recent N points of
// a stream (a count-based sliding window). Unlike package maintain,
// points expire: an expiring point that was on the skyline may
// "resurrect" points it had been dominating, so the full window must
// be retained.
//
// The implementation keeps the window in a ring buffer and the current
// skyline in a plan.Fold — the same incremental skyline package
// maintain is. An arrival is folded in as a one-row batch (the cheap,
// common case); expiries of non-skyline points are free, while expiry
// of a skyline point triggers a recompute of the skyline from the live
// window — the classic lazy strategy, exact at every step and amortized
// well because most expiring points are not skyline points.
package window

import (
	"fmt"

	"zskyline/internal/dominance"
	"zskyline/internal/metrics"
	"zskyline/internal/plan"
	"zskyline/internal/point"
)

// Skyline is a sliding-window skyline maintainer. Not safe for
// concurrent use; wrap with a mutex if shared.
type Skyline struct {
	rule     *plan.Rule
	fold     *plan.Fold
	tally    *metrics.Tally
	capacity int
	ring     []point.Point
	head     int // index of the oldest point
	size     int
	// dirty marks that the fold must be rebuilt from the ring before the
	// next read (set when a skyline point expired, and on every push
	// under a non-transitive relation — see push).
	dirty bool
	subs  []func([]point.Point)
}

// New creates a window of the given capacity for dims-dimensional
// points over [mins, maxs].
func New(capacity, dims, bits int, mins, maxs []float64) (*Skyline, error) {
	return NewUnder(nil, capacity, dims, bits, mins, maxs)
}

// NewUnder creates a window that maintains the skyline under the given
// dominance provider (nil selects classic Pareto dominance). Unlike
// package maintain, any irreflexive relation is supported: the window
// retains all live points, so a non-transitive relation simply
// recomputes from the ring on every push instead of folding arrivals in
// (a fold tests arrivals only against the current skyline, which is
// conclusive only under transitivity). The relation is rebuilt from its
// descriptor, so its kind must be registered.
func NewUnder(prov dominance.Provider, capacity, dims, bits int, mins, maxs []float64) (*Skyline, error) {
	if capacity < 1 {
		return nil, fmt.Errorf("window: capacity must be positive, got %d", capacity)
	}
	if prov == nil {
		prov = dominance.Pareto{}
	}
	rule, err := plan.FromData(&plan.RuleData{Dims: dims, Bits: bits, Mins: mins, Maxs: maxs,
		Local: plan.ZS, Merge: plan.MergeZM, Dominance: prov.Descriptor()})
	if err != nil {
		return nil, err
	}
	tally := &metrics.Tally{}
	return &Skyline{
		rule:     rule,
		fold:     plan.NewFold(rule, tally),
		tally:    tally,
		capacity: capacity,
		ring:     make([]point.Point, capacity),
	}, nil
}

// NewUnit creates a window over the unit hypercube.
func NewUnit(capacity, dims, bits int) (*Skyline, error) {
	mins := make([]float64, dims)
	maxs := make([]float64, dims)
	for i := range maxs {
		maxs[i] = 1
	}
	return New(capacity, dims, bits, mins, maxs)
}

// Len returns the number of live points in the window.
func (w *Skyline) Len() int { return w.size }

// dims returns the width of the window's points.
func (w *Skyline) dims() int { return w.rule.Encoder().Dims() }

// Subscribe registers fn to be called after every Push that changes
// the skyline, with the new skyline (in Z-order; callers must not
// mutate it). Subscribing makes maintenance eager: detecting a change
// forces the lazy rebuild on every push.
func (w *Skyline) Subscribe(fn func([]point.Point)) {
	w.subs = append(w.subs, fn)
}

// Push appends p to the stream, expiring the oldest point if the
// window is full. It returns whether p is currently a skyline point.
func (w *Skyline) Push(p point.Point) (bool, error) {
	if len(p) != w.dims() {
		return false, fmt.Errorf("window: point has %d dims, want %d", len(p), w.dims())
	}
	var before []point.Point
	if len(w.subs) > 0 {
		before = w.Current()
	}
	on := w.push(p)
	if len(w.subs) > 0 {
		after := w.Current()
		if !sameZOrdered(before, after) {
			for _, fn := range w.subs {
				fn(after)
			}
		}
	}
	return on, nil
}

func (w *Skyline) push(p point.Point) bool {
	// A non-transitive relation invalidates both incremental shortcuts:
	// an arrival undominated by the skyline may still be dominated by a
	// live non-skyline point, and a non-skyline expiry may resurrect
	// points only it was dominating. Recompute from the ring instead.
	if !w.rule.Provider().Caps().Transitive {
		w.dirty = true
	}
	// Expire the oldest point first.
	if w.size == w.capacity {
		old := w.ring[w.head]
		w.ring[w.head] = nil
		w.head = (w.head + 1) % w.capacity
		w.size--
		if !w.dirty && w.onSkyline(old) {
			// A skyline point left the window: lazily rebuild.
			w.dirty = true
		}
	}
	w.ring[(w.head+w.size)%w.capacity] = p
	w.size++
	if w.dirty {
		// The rebuild recomputes the exact skyline of the live window,
		// which already includes p — do not fold it in a second time.
		w.rebuild()
		return w.onSkyline(p)
	}
	// Incremental arrival: p joins exactly when the fold keeps its row.
	return w.fold.Add(plan.Group{Block: point.BlockOf(w.dims(), []point.Point{p})}) == 1
}

// onSkyline reports whether the current skyline holds a point with
// exactly p's coordinates. Dominance is decided by coordinates, so a
// point equal to a skyline point is itself on the skyline.
func (w *Skyline) onSkyline(p point.Point) bool {
	sky := w.fold.Skyline().Block
	for i := 0; i < sky.Len(); i++ {
		if sky.Row(i).Equal(p) {
			return true
		}
	}
	return false
}

// Live returns the window's live points, oldest first. The serving
// tier queries it directly (subspace preference queries need the full
// live set, not just the skyline).
func (w *Skyline) Live() []point.Point {
	live := make([]point.Point, 0, w.size)
	for i := 0; i < w.size; i++ {
		live = append(live, w.ring[(w.head+i)%w.capacity])
	}
	return live
}

// rebuild recomputes the skyline from the live window and starts a
// fresh fold from it.
func (w *Skyline) rebuild() {
	live := plan.Group{Block: point.BlockOf(w.dims(), w.Live())}
	w.fold = plan.NewFoldFrom(w.rule, w.tally, w.rule.LocalSkylineGroup(live, w.tally))
	w.dirty = false
}

// sameZOrdered compares two skyline snapshots, both read off a fold and
// therefore in Z-order, so equal sets compare equal element-wise.
func sameZOrdered(a, b []point.Point) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

// Current returns the skyline of the live window.
func (w *Skyline) Current() []point.Point {
	if w.dirty {
		w.rebuild()
	}
	return w.fold.Skyline().Points()
}

// Stats exposes the accumulated test counters.
func (w *Skyline) Stats() metrics.Snapshot { return w.tally.Snapshot() }
