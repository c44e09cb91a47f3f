// Package maintain provides incremental skyline maintenance: a
// Maintainer ingests batches of new points and keeps the running
// skyline available at all times. It is a plan.Fold — the paper's
// Z-merge (§5.3, Algorithm 4) as the way a skyline absorbs new data —
// plus a data version, the count of points seen, a lock and a save
// format. Each batch is reduced to its own skyline and Z-merged into the
// kept one, so per-batch cost tracks the skyline sizes rather than the
// stream length.
//
// Deletions are intentionally unsupported: removing a skyline point
// may resurrect points the maintainer has already discarded, which
// requires keeping the full history. Callers that need deletion should
// rebuild from retained data.
package maintain

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sync"

	"zskyline/internal/codec"
	"zskyline/internal/dominance"
	"zskyline/internal/metrics"
	"zskyline/internal/plan"
	"zskyline/internal/point"
)

// Maintainer keeps the skyline of everything inserted so far. It is
// safe for concurrent use; reads and writes serialize on one mutex
// (batched inserts make the critical section coarse but rare).
type Maintainer struct {
	mu    sync.Mutex
	rule  *plan.Rule
	fold  *plan.Fold
	tally *metrics.Tally
	seen  int64
	// version counts successful non-empty inserts: it identifies the
	// data state monotonically, so serving layers can key caches by it.
	version uint64
	// view caches the skyline snapshot handed out by View; nil when
	// stale (invalidated on every insert).
	view []point.Point
}

// New creates a Maintainer for dims-dimensional points over the value
// box [mins, maxs]. Points outside the box are still handled exactly
// (quantization clamps; exact float tests decide), but pruning works
// best when the box matches the data.
func New(dims, bits int, mins, maxs []float64) (*Maintainer, error) {
	return NewUnder(nil, dims, bits, mins, maxs)
}

// NewUnder creates a Maintainer that maintains the skyline under the
// given dominance provider (nil selects classic Pareto dominance).
// Insert-only maintenance discards dominated points forever, which is
// exact only when the relation is transitive (a discarded point's
// future victims are also dominated by its surviving dominator); a
// non-transitive provider is rejected — recompute from retained data
// instead (e.g. with internal/window or a pipeline run). The relation
// is rebuilt from its descriptor, so its kind must be registered.
func NewUnder(prov dominance.Provider, dims, bits int, mins, maxs []float64) (*Maintainer, error) {
	if prov == nil {
		prov = dominance.Pareto{}
	}
	if !prov.Caps().Transitive {
		return nil, fmt.Errorf("maintain: relation %q is not transitive; incremental maintenance would be unsound", prov.Name())
	}
	rule, err := plan.FromData(&plan.RuleData{Dims: dims, Bits: bits, Mins: mins, Maxs: maxs,
		Local: plan.ZS, Merge: plan.MergeZM, Dominance: prov.Descriptor()})
	if err != nil {
		return nil, err
	}
	tally := &metrics.Tally{}
	return &Maintainer{rule: rule, fold: plan.NewFold(rule, tally), tally: tally}, nil
}

// NewUnit creates a Maintainer over the unit hypercube.
func NewUnit(dims, bits int) (*Maintainer, error) {
	mins := make([]float64, dims)
	maxs := make([]float64, dims)
	for i := range maxs {
		maxs[i] = 1
	}
	return New(dims, bits, mins, maxs)
}

// Insert merges a batch of points into the maintained skyline and
// returns how many of the batch's points are part of the new skyline.
// It is InsertBlock over a contiguous copy of the batch.
func (m *Maintainer) Insert(batch []point.Point) (int, error) {
	for i, p := range batch {
		if len(p) != m.Dims() {
			return 0, fmt.Errorf("maintain: point %d has %d dims, want %d", i, len(p), m.Dims())
		}
	}
	if len(batch) == 0 {
		return 0, nil
	}
	return m.InsertBlock(point.BlockOf(m.Dims(), batch))
}

// InsertBlock folds every row of a block into the maintained skyline
// and returns how many of them are part of the new skyline. The kept
// skyline is a fresh copy after every insert, so it never pins the
// (transient, typically much larger) block's backing array.
func (m *Maintainer) InsertBlock(b point.Block) (int, error) {
	if b.Len() == 0 {
		return 0, nil
	}
	if b.Dims != m.Dims() {
		return 0, fmt.Errorf("maintain: block has %d dims, want %d", b.Dims, m.Dims())
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.seen += int64(b.Len())
	m.version++
	m.view = nil
	return m.fold.Add(plan.Group{Block: b}), nil
}

// Skyline returns the current skyline in Z-order. The slice is the
// caller's; the points are shared and must not be mutated.
func (m *Maintainer) Skyline() []point.Point {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.fold.Skyline().Points()
}

// View returns the current skyline (in Z-order) and the data
// version, without building a new slice on repeat calls: the snapshot
// is cached until the next insert, so read-heavy serving layers share
// one immutable slice. Callers must not mutate the returned points.
func (m *Maintainer) View() ([]point.Point, uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.view == nil {
		m.view = m.fold.Skyline().Points()
	}
	return m.view, m.version
}

// Version returns the number of successful non-empty inserts so far —
// a monotonic identifier of the maintained data state.
func (m *Maintainer) Version() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.version
}

// Dims returns the dimensionality of maintained points.
func (m *Maintainer) Dims() int { return m.rule.Encoder().Dims() }

// Bits returns the Z-order grid resolution.
func (m *Maintainer) Bits() int { return m.rule.Encoder().Bits() }

// Descriptor returns the wire form of the maintained dominance
// relation.
func (m *Maintainer) Descriptor() dominance.Descriptor {
	return m.rule.Provider().Descriptor()
}

// Size returns the current skyline cardinality.
func (m *Maintainer) Size() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.fold.Skyline().Len()
}

// Seen returns how many points have been inserted in total.
func (m *Maintainer) Seen() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.seen
}

// Dominated reports whether p is strictly dominated by the current
// skyline (i.e. inserting it would be a no-op).
func (m *Maintainer) Dominated(p point.Point) bool {
	return len(m.Dominators(p)) > 0
}

// Dominators returns the skyline points that dominate p under the
// maintained relation. Because maintained relations are transitive,
// the list is non-empty exactly when p is dominated by *any* inserted
// point — the skyline members are the canonical witnesses.
func (m *Maintainer) Dominators(p point.Point) []point.Point {
	m.mu.Lock()
	defer m.mu.Unlock()
	prov := m.rule.Provider()
	var out []point.Point
	for _, q := range m.fold.Skyline().Points() {
		if prov.Dominates(q, p) {
			out = append(out, q)
		}
	}
	return out
}

// Stats exposes the accumulated dominance/region test counters.
func (m *Maintainer) Stats() metrics.Snapshot {
	return m.tally.Snapshot()
}

// snapMagic opens the versioned snapshot format: a header carrying the
// dominance descriptor and data version alongside the legacy fields
// (bits, box, points seen), followed by the skyline in ZSKY binary
// form. The magic byte 'Z' (0x5A) cannot collide with the legacy
// header, whose first field was bits <= 32.
var snapMagic = [4]byte{'Z', 'M', 'T', '2'}

// Save serializes the maintainer's state: a header (magic, bits, data
// version, points seen, dominance descriptor, encoder box) followed by
// the skyline in ZSKY binary form. The full input stream is NOT
// retained — only the skyline — which is exactly the information
// needed to continue inserting. Any maintainable (transitive) relation
// round-trips: the descriptor travels in the header and Load
// reconstructs the provider from it.
func (m *Maintainer) Save(w io.Writer) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	desc := []byte(m.Descriptor().String())
	if len(desc) > math.MaxUint16 {
		return fmt.Errorf("maintain: descriptor too long (%d bytes)", len(desc))
	}
	dims := m.Dims()
	hdr := make([]byte, 0, 4+4+4+8+8+2+len(desc)+16*dims)
	hdr = append(hdr, snapMagic[:]...)
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(m.Bits()))
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(dims))
	hdr = binary.LittleEndian.AppendUint64(hdr, uint64(m.seen))
	hdr = binary.LittleEndian.AppendUint64(hdr, m.version)
	hdr = binary.LittleEndian.AppendUint16(hdr, uint16(len(desc)))
	hdr = append(hdr, desc...)
	mins, maxs := m.bounds()
	for k := 0; k < dims; k++ {
		hdr = binary.LittleEndian.AppendUint64(hdr, math.Float64bits(mins[k]))
		hdr = binary.LittleEndian.AppendUint64(hdr, math.Float64bits(maxs[k]))
	}
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	ds := point.Dataset{Dims: dims, Points: m.fold.Skyline().Points()}
	return codec.WriteBinary(w, &ds)
}

// bounds recovers the encoder's box from cell corners.
func (m *Maintainer) bounds() (mins, maxs []float64) {
	enc := m.rule.Encoder()
	zero := make([]uint32, enc.Dims())
	top := make([]uint32, enc.Dims())
	for k := range top {
		top[k] = enc.MaxGrid()
	}
	return enc.CellMin(zero), enc.CellMax(top)
}

// Load restores a maintainer previously written by Save. Both the
// current descriptor-carrying format and the legacy Pareto-only header
// are accepted. A header's lengths are not trusted: Load allocates only
// as the bytes they promise arrive, so a short hostile body costs what
// it holds. The stored skyline is added to a fresh fold as one batch.
func Load(r io.Reader) (*Maintainer, error) {
	head := make([]byte, 4)
	if _, err := io.ReadFull(r, head); err != nil {
		return nil, fmt.Errorf("maintain: reading header: %w", err)
	}
	var (
		bits, dims int
		seen       int64
		version    uint64
		prov       dominance.Provider
	)
	if [4]byte(head) == snapMagic {
		rest := make([]byte, 4+4+8+8+2)
		if _, err := io.ReadFull(r, rest); err != nil {
			return nil, fmt.Errorf("maintain: reading header: %w", err)
		}
		bits = int(binary.LittleEndian.Uint32(rest[0:4]))
		dims = int(binary.LittleEndian.Uint32(rest[4:8]))
		seen = int64(binary.LittleEndian.Uint64(rest[8:16]))
		version = binary.LittleEndian.Uint64(rest[16:24])
		descBuf, err := readN(r, int(binary.LittleEndian.Uint16(rest[24:26])))
		if err != nil {
			return nil, fmt.Errorf("maintain: reading descriptor: %w", err)
		}
		prov, err = dominance.Parse(string(descBuf))
		if err != nil {
			return nil, fmt.Errorf("maintain: snapshot descriptor: %w", err)
		}
	} else {
		// Legacy header: bits, dims, seen — always Pareto, version
		// unknown (restored as seen inserts collapsed to one state).
		rest := make([]byte, 12)
		if _, err := io.ReadFull(r, rest); err != nil {
			return nil, fmt.Errorf("maintain: reading header: %w", err)
		}
		bits = int(binary.LittleEndian.Uint32(head))
		dims = int(binary.LittleEndian.Uint32(rest[0:4]))
		seen = int64(binary.LittleEndian.Uint64(rest[4:12]))
		if seen > 0 {
			version = 1
		}
	}
	if dims <= 0 || dims > 1<<20 || bits <= 0 || bits > 32 {
		return nil, fmt.Errorf("maintain: implausible header dims=%d bits=%d", dims, bits)
	}
	box, err := readN(r, 16*dims)
	if err != nil {
		return nil, fmt.Errorf("maintain: reading bounds: %w", err)
	}
	mins := make([]float64, dims)
	maxs := make([]float64, dims)
	for k := 0; k < dims; k++ {
		mins[k] = math.Float64frombits(binary.LittleEndian.Uint64(box[16*k:]))
		maxs[k] = math.Float64frombits(binary.LittleEndian.Uint64(box[8+16*k:]))
	}
	m, err := NewUnder(prov, dims, bits, mins, maxs)
	if err != nil {
		return nil, err
	}
	ds, err := codec.ReadBinary(r)
	if err != nil {
		return nil, fmt.Errorf("maintain: reading skyline: %w", err)
	}
	if ds.Dims != dims {
		return nil, fmt.Errorf("maintain: skyline dims %d != header %d", ds.Dims, dims)
	}
	m.fold.Add(plan.NewGroup(0, dims, ds.Points))
	m.seen = seen
	m.version = version
	return m, nil
}

// readN reads exactly n bytes, growing the buffer as they arrive rather
// than to n up front.
func readN(r io.Reader, n int) ([]byte, error) {
	var buf bytes.Buffer
	if _, err := io.CopyN(&buf, r, int64(n)); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return buf.Bytes(), nil
}
