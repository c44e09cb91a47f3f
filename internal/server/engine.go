// engine.go: one served dataset. An Engine wraps either an
// incremental skyline maintainer (the default: insert-only, the
// skyline is kept current on every ingest, snapshot/restorable) or a
// count-based sliding window (points expire), behind one mutex that
// makes (ingest, version bump, cache purge, notification) atomic with
// respect to queries. Every query reads one consistent snapshot —
// data, skyline, and version taken together — so a response always
// equals the oracle over an exact prefix of the ingest stream.
package server

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"regexp"
	"sort"
	"sync"

	"zskyline/internal/dominance"
	"zskyline/internal/maintain"
	"zskyline/internal/metrics"
	"zskyline/internal/obs"
	"zskyline/internal/point"
	"zskyline/internal/rank"
	"zskyline/internal/subspace"
	"zskyline/internal/window"
)

// DatasetSpec describes a dataset to create — the POST /datasets body.
type DatasetSpec struct {
	Name  string   `json:"name"`
	Attrs []string `json:"attrs"`
	// Bits is the Z-order grid resolution (service default when 0).
	Bits int `json:"bits,omitempty"`
	// Dominance is the dominance descriptor in CLI grammar ("pareto",
	// "flex:1,2;2,1", "robust:0.1", ...); empty means Pareto.
	Dominance string `json:"dominance,omitempty"`
	// Mins/Maxs bound the value box for Z-encoding. Both empty selects
	// the unit hypercube; out-of-box points are still handled exactly
	// (quantization clamps, float tests decide), just pruned less well.
	Mins []float64 `json:"mins,omitempty"`
	Maxs []float64 `json:"maxs,omitempty"`
	// Window, when positive, makes the dataset a count-based sliding
	// window of the most recent Window points instead of an unbounded
	// incrementally-maintained one. Windowed datasets cannot be
	// snapshotted.
	Window int `json:"window,omitempty"`
}

// DatasetInfo is the JSON shape describing one served dataset.
type DatasetInfo struct {
	Name       string   `json:"name"`
	Attrs      []string `json:"attrs"`
	Dominance  string   `json:"dominance"`
	Window     int      `json:"window,omitempty"`
	Points     int64    `json:"points"`
	Version    uint64   `json:"version"`
	SkyVersion uint64   `json:"sky_version"`
	Skyline    int      `json:"skyline"`
	Cached     int      `json:"cached"`
}

var nameRe = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// Engine hosts one named dataset: attrs, dominance relation, the
// maintained (or windowed) skyline, the retained point log that
// subspace preference queries run over, a versioned result cache, and
// a per-dataset admission semaphore.
type Engine struct {
	name  string
	attrs []string
	index map[string]int
	dims  int
	bits  int
	desc  dominance.Descriptor
	prov  dominance.Provider

	cache *resultCache
	sem   chan struct{} // nil = unlimited in-flight queries

	mu  sync.RWMutex
	m   *maintain.Maintainer // unbounded mode
	win *window.Skyline      // windowed mode (guarded by mu, full lock)

	winCap  int
	winSeen int64
	// data is the retained ingest log (row-major), the relation that
	// /query projects and solves over. In window mode the live ring is
	// read from win instead.
	data []float64
	// version counts ingests (the data state); skyVersion counts
	// skyline *changes* and drives /subscribe wakeups.
	version    uint64
	skyVersion uint64
	waitCh     chan struct{} // closed and replaced on every skyline change
	lastTally  metrics.Snapshot
	winChanged bool // scratch flag set by the window subscription
}

// newEngine validates spec and builds an empty engine.
func newEngine(spec DatasetSpec, defBits, cacheSize, maxInFlight int) (*Engine, error) {
	if !nameRe.MatchString(spec.Name) {
		return nil, fmt.Errorf("server: invalid dataset name %q", spec.Name)
	}
	if len(spec.Attrs) == 0 {
		return nil, fmt.Errorf("server: dataset %q has no attributes", spec.Name)
	}
	index := map[string]int{}
	for i, a := range spec.Attrs {
		if a == "" {
			return nil, fmt.Errorf("server: empty attribute name at %d", i)
		}
		if _, dup := index[a]; dup {
			return nil, fmt.Errorf("server: duplicate attribute %q", a)
		}
		index[a] = i
	}
	dims := len(spec.Attrs)
	bits := spec.Bits
	if bits <= 0 {
		bits = defBits
	}
	desc := dominance.Descriptor{Kind: dominance.KindPareto}
	if spec.Dominance != "" {
		var err error
		desc, err = dominance.ParseDescriptor(spec.Dominance)
		if err != nil {
			return nil, err
		}
	}
	prov, err := desc.Provider()
	if err != nil {
		return nil, err
	}
	for _, w := range desc.Weights {
		if len(w) != dims {
			return nil, fmt.Errorf("server: flex weights have %d dims, dataset has %d", len(w), dims)
		}
	}
	mins, maxs := spec.Mins, spec.Maxs
	if len(mins) == 0 && len(maxs) == 0 {
		mins = make([]float64, dims)
		maxs = make([]float64, dims)
		for i := range maxs {
			maxs[i] = 1
		}
	}
	if len(mins) != dims || len(maxs) != dims {
		return nil, fmt.Errorf("server: bounds have %d/%d dims, want %d", len(mins), len(maxs), dims)
	}
	e := &Engine{
		name:   spec.Name,
		attrs:  spec.Attrs,
		index:  index,
		dims:   dims,
		bits:   bits,
		desc:   desc,
		prov:   prov,
		cache:  newResultCache(cacheSize),
		waitCh: make(chan struct{}),
		winCap: spec.Window,
	}
	if maxInFlight > 0 {
		e.sem = make(chan struct{}, maxInFlight)
	}
	if spec.Window > 0 {
		w, err := window.NewUnder(prov, spec.Window, dims, bits, mins, maxs)
		if err != nil {
			return nil, err
		}
		// The subscription makes window maintenance eager and flags
		// skyline changes; it fires inside Push, under e.mu.
		w.Subscribe(func([]point.Point) { e.winChanged = true })
		e.win = w
		return e, nil
	}
	m, err := maintain.NewUnder(prov, dims, bits, mins, maxs)
	if err != nil {
		return nil, err
	}
	e.m = m
	return e, nil
}

// Name returns the dataset name.
func (e *Engine) Name() string { return e.name }

// Version returns the current data version.
func (e *Engine) Version() uint64 {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.version
}

// Info snapshots the dataset's public state.
func (e *Engine) Info() DatasetInfo {
	snap := e.snapshot()
	return DatasetInfo{
		Name:       e.name,
		Attrs:      e.attrs,
		Dominance:  e.desc.String(),
		Window:     e.winCap,
		Points:     snap.seen,
		Version:    snap.version,
		SkyVersion: snap.skyVersion,
		Skyline:    len(snap.sky),
		Cached:     e.cache.Len(),
	}
}

// engineSnap is one consistent read of the dataset: the version, the
// skyline, and the retained relation all describe the same prefix of
// the ingest stream.
type engineSnap struct {
	version    uint64
	skyVersion uint64
	seen       int64
	sky        []point.Point // immutable; callers must not mutate
	data       point.Block   // immutable view of the retained relation
}

// snapshot captures a consistent engine state. In maintain mode a read
// lock suffices (the maintainer's View is copy-free and the data log
// is append-only); window reads need the full lock because Current()
// may rebuild lazily.
func (e *Engine) snapshot() engineSnap {
	if e.m != nil {
		e.mu.RLock()
		defer e.mu.RUnlock()
		sky, _ := e.m.View()
		n := len(e.data)
		return engineSnap{
			version:    e.version,
			skyVersion: e.skyVersion,
			seen:       e.m.Seen(),
			sky:        sky,
			data:       point.Block{Dims: e.dims, Data: e.data[:n:n]},
		}
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return engineSnap{
		version:    e.version,
		skyVersion: e.skyVersion,
		seen:       e.winSeen,
		sky:        e.win.Current(),
		data:       point.BlockOf(e.dims, e.win.Live()),
	}
}

// waitChan returns the channel closed on the next skyline change.
func (e *Engine) waitChan() <-chan struct{} {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.waitCh
}

// tryAcquire reserves one in-flight query slot; the release func must
// be called when the query finishes. ok=false means the dataset is
// saturated and the request should be rejected, not queued.
func (e *Engine) tryAcquire() (release func(), ok bool) {
	if e.sem == nil {
		return func() {}, true
	}
	select {
	case e.sem <- struct{}{}:
		return func() { <-e.sem }, true
	default:
		return nil, false
	}
}

// IngestBlock merges a block of points into the dataset under one
// write lock: the skyline update, the retained-log append, the version
// bump, the cache purge, and the subscriber notification are atomic
// with respect to queries. The skyline build time is recorded as a
// "build" span on ctx's trace. Returns how many batch points are on
// the current skyline and the new data version.
func (e *Engine) IngestBlock(ctx context.Context, b point.Block) (added int, version uint64, err error) {
	if b.Dims != e.dims {
		return 0, e.Version(), fmt.Errorf("server: block has %d dims, dataset %q has %d", b.Dims, e.name, e.dims)
	}
	if b.Len() == 0 {
		return 0, e.Version(), nil
	}
	sp, _ := obs.StartSpan(ctx, "build")
	defer sp.End()

	e.mu.Lock()
	defer e.mu.Unlock()
	changed := false
	if e.m != nil {
		added, err = e.m.InsertBlock(b)
		if err != nil {
			return 0, e.version, err
		}
		e.data = append(e.data, b.Data...)
		e.version = e.m.Version()
		changed = added > 0
	} else {
		e.winChanged = false
		for _, p := range b.Points() {
			on, perr := e.win.Push(p)
			if perr != nil {
				return added, e.version, perr
			}
			if on {
				added++
			}
		}
		e.winSeen += int64(b.Len())
		e.version++
		changed = e.winChanged
	}
	if changed {
		e.skyVersion++
		close(e.waitCh)
		e.waitCh = make(chan struct{})
	}
	// Version-keyed entries can no longer be hit; reclaim them now so
	// write-heavy datasets don't carry dead generations until LRU
	// eviction.
	e.cache.Purge()
	return added, e.version, nil
}

// tallyDelta returns the dominance/region work done since the last
// call (absorbed into the service's Prometheus counters).
func (e *Engine) tallyDelta() metrics.Snapshot {
	e.mu.Lock()
	defer e.mu.Unlock()
	var snap metrics.Snapshot
	if e.m != nil {
		snap = e.m.Stats()
	} else {
		snap = e.win.Stats()
	}
	delta := snap.Sub(e.lastTally)
	e.lastTally = snap
	return delta
}

// ---- queries over a snapshot ----

// resolvePrefs validates a preference list against the dataset's
// attributes and returns the projection columns plus the canonical
// query shape (columns in attribute order, so equivalent preference
// lists share one cache entry). An attribute named twice is an error,
// as in RunQuery: min and max on one column would leave every row on
// the skyline.
func (e *Engine) resolvePrefs(prefer []preferTerm) ([]subspace.Column, string, error) {
	var cols []subspace.Column
	seen := make([]bool, len(e.attrs))
	for _, p := range prefer {
		i, ok := e.index[p.Attr]
		if !ok {
			return nil, "", fmt.Errorf("unknown attribute %q", p.Attr)
		}
		if seen[i] {
			return nil, "", fmt.Errorf("attribute %q preferred twice", p.Attr)
		}
		seen[i] = true
		switch p.Dir {
		case "min":
			cols = append(cols, subspace.Column{Dim: i})
		case "max":
			cols = append(cols, subspace.Column{Dim: i, Negate: true})
		case "ignore":
		default:
			return nil, "", fmt.Errorf("direction %q (want min|max|ignore)", p.Dir)
		}
	}
	if len(cols) == 0 {
		return nil, "", fmt.Errorf("every attribute ignored")
	}
	sort.SliceStable(cols, func(i, j int) bool { return cols[i].Dim < cols[j].Dim })
	var shape []byte
	for k, c := range cols {
		if k > 0 {
			shape = append(shape, ',')
		}
		shape = append(shape, e.attrs[c.Dim]...)
		if c.Negate {
			shape = append(shape, ":max"...)
		} else {
			shape = append(shape, ":min"...)
		}
	}
	return cols, string(shape), nil
}

// queryRows returns, ascending, every row whose projection onto cols
// (max columns negated) no row strictly dominates, duplicates
// included: subspace.Rows over the snapshot's rows.
func queryRows(data point.Block, cols []subspace.Column) []int {
	return subspace.Rows(data.Len(), data.Row, cols, nil)
}

// dominatorsOf returns the points dominating p under the dataset's
// relation. Under a transitive relation every dominated point has a
// skyline dominator, so the skyline's members are complete witnesses:
// the list is non-empty iff p is dominated at all. A non-transitive
// relation (window mode accepts kdom) gives no such guarantee — two
// rows that dominate each other leave an empty skyline — so the live
// rows are scanned instead.
func (e *Engine) dominatorsOf(snap engineSnap, p point.Point) []point.Point {
	witnesses := snap.sky
	if !e.prov.Caps().Transitive {
		witnesses = snap.data.Points()
	}
	var out []point.Point
	for _, q := range witnesses {
		if e.prov.Dominates(q, p) {
			out = append(out, q)
		}
	}
	return out
}

// topK ranks the skyline by a weighted sum.
func (e *Engine) topK(snap engineSnap, k int, weights []float64) ([]rank.Scored, error) {
	score, err := rank.WeightedSum(weights)
	if err != nil {
		return nil, err
	}
	return rank.TopKByScore(snap.sky, k, score), nil
}

// ---- snapshot / restore ----

// engineSnapMagic opens the engine snapshot container: a JSON meta
// header (attrs, dominance) followed by the maintainer's own binary
// snapshot.
var engineSnapMagic = [4]byte{'Z', 'S', 'R', '1'}

type engineSnapMeta struct {
	Name  string   `json:"name"`
	Attrs []string `json:"attrs"`
	Bits  int      `json:"bits"`
}

// Save streams the dataset's state: meta header plus the maintained
// skyline. Windowed datasets are not snapshottable (expiry needs the
// full ring history; retain the source stream instead).
func (e *Engine) Save(w io.Writer) error {
	if e.m == nil {
		return fmt.Errorf("server: dataset %q is windowed; snapshots are unsupported", e.name)
	}
	meta, err := json.Marshal(engineSnapMeta{Name: e.name, Attrs: e.attrs, Bits: e.bits})
	if err != nil {
		return err
	}
	// Hold the read lock so no ingest interleaves between the header
	// and the maintainer payload.
	e.mu.RLock()
	defer e.mu.RUnlock()
	hdr := make([]byte, 0, 8+len(meta))
	hdr = append(hdr, engineSnapMagic[:]...)
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(len(meta)))
	hdr = append(hdr, meta...)
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	return e.m.Save(w)
}

// restoreEngine rebuilds an engine from a Save stream under the given
// name. The restored relation retains the skyline points (exactly what
// the maintainer persists), so preference queries keep working; row
// indices restart from the restored skyline.
func restoreEngine(name string, r io.Reader, defBits, cacheSize, maxInFlight int) (*Engine, error) {
	head := make([]byte, 8)
	if _, err := io.ReadFull(r, head); err != nil {
		return nil, fmt.Errorf("server: reading snapshot header: %w", err)
	}
	if [4]byte(head[:4]) != engineSnapMagic {
		return nil, fmt.Errorf("server: not an engine snapshot (bad magic)")
	}
	metaLen := int(binary.LittleEndian.Uint32(head[4:8]))
	if metaLen <= 0 || metaLen > 1<<20 {
		return nil, fmt.Errorf("server: implausible snapshot meta length %d", metaLen)
	}
	metaBuf := make([]byte, metaLen)
	if _, err := io.ReadFull(r, metaBuf); err != nil {
		return nil, fmt.Errorf("server: reading snapshot meta: %w", err)
	}
	var meta engineSnapMeta
	if err := json.Unmarshal(metaBuf, &meta); err != nil {
		return nil, fmt.Errorf("server: snapshot meta: %w", err)
	}
	m, err := maintain.Load(r)
	if err != nil {
		return nil, err
	}
	if len(meta.Attrs) != m.Dims() {
		return nil, fmt.Errorf("server: snapshot has %d attrs for %d dims", len(meta.Attrs), m.Dims())
	}
	spec := DatasetSpec{
		Name:      name,
		Attrs:     meta.Attrs,
		Bits:      m.Bits(),
		Dominance: m.Descriptor().String(),
		// Bounds live inside the maintainer; the spec box is only used
		// to build the maintainer we are about to replace.
	}
	e, err := newEngine(spec, defBits, cacheSize, maxInFlight)
	if err != nil {
		return nil, err
	}
	e.m = m
	sky, version := m.View()
	for _, p := range sky {
		e.data = append(e.data, p...)
	}
	e.version = version
	e.skyVersion = version
	return e, nil
}
