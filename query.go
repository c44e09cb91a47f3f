package zskyline

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"

	"zskyline/internal/core"
	"zskyline/internal/point"
	"zskyline/internal/subspace"
)

// Direction states which way an attribute is preferred.
type Direction int

// Preference directions.
const (
	// Min prefers smaller values (price, distance, latency).
	Min Direction = iota
	// Max prefers larger values (rating, throughput).
	Max
	// Ignore excludes the attribute from dominance comparison — the
	// subspace-skyline case.
	Ignore
)

// String names the direction.
func (d Direction) String() string {
	switch d {
	case Min:
		return "min"
	case Max:
		return "max"
	default:
		return "ignore"
	}
}

// Pref is one attribute preference of a Query.
type Pref struct {
	// Attr is the attribute (column) name.
	Attr string
	// Dir is the preference direction.
	Dir Direction
}

// Relation is a named-attribute dataset: the user-facing counterpart
// to the column-indexed Dataset. Rows are records; attribute order is
// fixed by Attrs.
type Relation struct {
	Attrs []string
	Rows  [][]float64
}

// NewRelation validates attribute names (non-empty, unique) and row
// widths and builds a Relation.
func NewRelation(attrs []string, rows [][]float64) (*Relation, error) {
	rel := &Relation{Attrs: attrs, Rows: rows}
	if err := rel.validate(); err != nil {
		return nil, err
	}
	return rel, nil
}

// validate runs NewRelation's checks, so that RunQuery and
// RunGroupedQuery treat a Relation literal exactly like a constructed
// one.
func (r *Relation) validate() error {
	if len(r.Attrs) == 0 {
		return fmt.Errorf("zskyline: relation needs at least one attribute")
	}
	seen := make(map[string]bool, len(r.Attrs))
	for i, a := range r.Attrs {
		if a == "" {
			return fmt.Errorf("zskyline: attribute %d has empty name", i)
		}
		if seen[a] {
			return fmt.Errorf("zskyline: duplicate attribute %q", a)
		}
		seen[a] = true
	}
	for i, row := range r.Rows {
		if len(row) != len(r.Attrs) {
			return fmt.Errorf("zskyline: row %d has %d values, want %d", i, len(row), len(r.Attrs))
		}
		for j, v := range row {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("zskyline: row %d attribute %q is not finite", i, r.Attrs[j])
			}
		}
	}
	return nil
}

// Len returns the number of rows.
func (r *Relation) Len() int { return len(r.Rows) }

// Query is a declarative skyline query over a Relation: which
// attributes participate and in which direction each is preferred.
// Attributes not mentioned are ignored.
type Query struct {
	Prefer []Pref
	// Config optionally overrides the pipeline configuration; the zero
	// value selects sensible defaults for the relation size.
	Config *Config
	// Dominance optionally selects a variant dominance relation (see
	// ParseDominance); the zero value keeps classic Pareto dominance.
	// When both Config and Dominance are set, Dominance wins.
	Dominance DominanceDescriptor
}

// Result is the answer to a Query.
type Result struct {
	// RowIDs indexes the skyline rows in the source relation,
	// ascending.
	RowIDs []int
	// Report is the pipeline report of the underlying run.
	Report *Report
}

// RunQuery executes a skyline query against rel. Max-preferences are
// negated and Ignore attributes projected away before the pipeline
// runs, so the library's smaller-is-better convention never leaks to
// callers. Ties and duplicates follow skyline-set semantics: rows with
// identical preference vectors are all returned.
func RunQuery(ctx context.Context, rel *Relation, q Query) (*Result, error) {
	if rel == nil {
		return &Result{Report: &Report{}}, nil
	}
	if err := rel.validate(); err != nil {
		return nil, err
	}
	if rel.Len() == 0 {
		return &Result{Report: &Report{}}, nil
	}
	if len(q.Prefer) == 0 {
		return nil, fmt.Errorf("zskyline: query has no preferences")
	}
	// Resolve the participating attribute columns.
	var cols []subspace.Column
	seen := map[string]bool{}
	for _, p := range q.Prefer {
		i := slices.Index(rel.Attrs, p.Attr)
		if i < 0 {
			return nil, fmt.Errorf("zskyline: unknown attribute %q", p.Attr)
		}
		if seen[p.Attr] {
			return nil, fmt.Errorf("zskyline: attribute %q preferred twice", p.Attr)
		}
		seen[p.Attr] = true
		if p.Dir == Ignore {
			continue
		}
		cols = append(cols, subspace.Column{Dim: i, Negate: p.Dir == Max})
	}
	if len(cols) == 0 {
		return nil, fmt.Errorf("zskyline: query ignores every attribute")
	}

	proj := subspace.Project(rel.Len(), func(r int) point.Point { return rel.Rows[r] }, cols)
	pts := proj.Points()
	cfg := defaultConfig(rel.Len())
	if q.Config != nil {
		cfg = *q.Config
	}
	if q.Dominance.Kind != "" {
		cfg.Dominance = q.Dominance
	}
	eng, err := core.NewEngine(cfg)
	if err != nil {
		return nil, err
	}
	sky, rep, err := eng.Skyline(ctx, &point.Dataset{Dims: proj.Dims, Points: pts})
	if err != nil {
		return nil, err
	}

	// Row r is in the answer when its projection is in the skyline.
	// Two vectors equal as floats (NewRelation rejects NaN) have the
	// same dominance status under every relation, so every copy of a
	// skyline vector is an answer row.
	point.SortLexicographic(sky)
	var ids []int
	for r, p := range pts {
		i := sort.Search(len(sky), func(i int) bool { return !point.Less(sky[i], p) })
		if i < len(sky) && !point.Less(p, sky[i]) {
			ids = append(ids, r)
		}
	}
	return &Result{RowIDs: ids, Report: rep}, nil
}

// An input under smallInput rows needs a denser sample and at most
// smallInputGroups groups.
const (
	smallInput       = 10000
	smallInputGroups = 8
)

// defaultConfig is Defaults sized for an input of n rows.
func defaultConfig(n int) Config {
	cfg := core.Defaults()
	if n < smallInput {
		cfg.M = min(cfg.M, smallInputGroups)
		cfg.SampleRatio = 0.1
	}
	return cfg
}

// GroupedResult is the answer to a RunGroupedQuery: one skyline per
// distinct value of the grouping attribute.
type GroupedResult struct {
	// Groups maps each distinct key value to the ascending row ids of
	// that group's skyline.
	Groups map[float64][]int
}

// RunGroupedQuery computes a skyline per group: rows are partitioned
// by the value of keyAttr and the preference skyline is evaluated
// inside each partition independently ("best hotels per city"). The
// key attribute must not itself carry a Min/Max preference.
func RunGroupedQuery(ctx context.Context, rel *Relation, keyAttr string, q Query) (*GroupedResult, error) {
	if rel == nil {
		return &GroupedResult{Groups: map[float64][]int{}}, nil
	}
	if err := rel.validate(); err != nil {
		return nil, err
	}
	if rel.Len() == 0 {
		return &GroupedResult{Groups: map[float64][]int{}}, nil
	}
	ki := slices.Index(rel.Attrs, keyAttr)
	if ki < 0 {
		return nil, fmt.Errorf("zskyline: unknown grouping attribute %q", keyAttr)
	}
	for _, p := range q.Prefer {
		if p.Attr == keyAttr && p.Dir != Ignore {
			return nil, fmt.Errorf("zskyline: grouping attribute %q cannot carry a preference", keyAttr)
		}
	}
	// Partition row ids by key.
	byKey := map[float64][]int{}
	for r, row := range rel.Rows {
		byKey[row[ki]] = append(byKey[row[ki]], r)
	}
	out := &GroupedResult{Groups: make(map[float64][]int, len(byKey))}
	for key, ids := range byKey {
		sub := make([][]float64, len(ids))
		for i, id := range ids {
			sub[i] = rel.Rows[id]
		}
		res, err := RunQuery(ctx, &Relation{Attrs: rel.Attrs, Rows: sub}, q)
		if err != nil {
			return nil, fmt.Errorf("zskyline: group %v: %w", key, err)
		}
		rows := make([]int, len(res.RowIDs))
		for i, sid := range res.RowIDs {
			rows[i] = ids[sid] // ascending, as ids and res.RowIDs are
		}
		out.Groups[key] = rows
	}
	return out, nil
}
