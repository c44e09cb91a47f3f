// Package point defines the multidimensional point model used across
// the library, together with the exact (floating-point) dominance
// tests that every skyline algorithm ultimately relies on.
//
// Convention: smaller is better in every dimension. A point p
// dominates a point q when p is no worse than q in every dimension and
// strictly better in at least one. Datasets that prefer larger values
// on some dimension should negate or invert those coordinates before
// calling into the library (see examples/hotels for a worked case).
package point

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Point is a single d-dimensional data point.
type Point []float64

// Clone returns a deep copy of p.
func (p Point) Clone() Point {
	q := make(Point, len(p))
	copy(q, p)
	return q
}

// Equal reports whether p and q have identical coordinates.
func (p Point) Equal(q Point) bool {
	if len(p) != len(q) {
		return false
	}
	for i := range p {
		if p[i] != q[i] {
			return false
		}
	}
	return true
}

// String renders the point as "(x1, x2, ...)" with short float forms.
func (p Point) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, v := range p {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(strconv.FormatFloat(v, 'g', 6, 64))
	}
	b.WriteByte(')')
	return b.String()
}

// Dominates reports whether p dominates q: p[i] <= q[i] for all i and
// p[j] < q[j] for at least one j. Points of unequal dimensionality are
// never comparable.
func Dominates(p, q Point) bool {
	if len(p) != len(q) {
		return false
	}
	strict := false
	for i := range p {
		if p[i] > q[i] {
			return false
		}
		if p[i] < q[i] {
			strict = true
		}
	}
	return strict
}

// DominatesRows reports whether row i of a dominates row j of b,
// reading the flat strides directly — the block-kernel form of
// Dominates, with no row-view headers on the hot path. Blocks of
// unequal dimensionality are never comparable.
func DominatesRows(a Block, i int, b Block, j int) bool {
	dims := a.Dims
	if dims != b.Dims || dims == 0 {
		return false
	}
	pa := a.Data[i*dims:][:dims]
	pb := b.Data[j*dims:][:dims]
	k := 0
	for ; k+4 <= dims; k += 4 {
		if AnyGreater4(pa[k:], pb[k:]) {
			return false
		}
	}
	for ; k < dims; k++ {
		if pa[k] > pb[k] {
			return false
		}
	}
	for k, v := range pa {
		if v < pb[k] {
			return true
		}
	}
	return false
}

// AnyGreater4 reports a[k] > b[k] for some k < 4; both must hold four
// coordinates. It is the unit the flat dominance loops (DominatesRows,
// the ZB-tree leaf scans) step by: on data worth a skyline query one
// coordinate is a coin toss, and the mispredicted branch of a
// coordinate-at-a-time exit costs more than the three comparisons it
// saves, so four are compared without a branch between them. Small
// enough to inline — the loops pay no call.
func AnyGreater4(a, b []float64) bool {
	_, _ = a[3], b[3]
	return gt(a[0], b[0])|gt(a[1], b[1])|gt(a[2], b[2])|gt(a[3], b[3]) != 0
}

// gt is a > b as an integer; it compiles to a flag set, not a branch.
func gt(a, b float64) uint {
	if a > b {
		return 1
	}
	return 0
}

// Dataset is a collection of points sharing one dimensionality.
type Dataset struct {
	Dims   int
	Points []Point
}

// NewDataset validates that every point has dims coordinates and wraps
// them in a Dataset.
func NewDataset(dims int, pts []Point) (*Dataset, error) {
	if dims <= 0 {
		return nil, fmt.Errorf("point: dimensionality must be positive, got %d", dims)
	}
	for i, p := range pts {
		if len(p) != dims {
			return nil, &WidthError{Row: i, Width: len(p), Dims: dims}
		}
		for k, v := range p {
			if math.IsNaN(v) {
				return nil, fmt.Errorf("point: point %d has NaN in dim %d", i, k)
			}
		}
	}
	return &Dataset{Dims: dims, Points: pts}, nil
}

// WidthError reports a row whose width is not its dataset's Dims, as a
// Dataset built without NewDataset can hold.
type WidthError struct {
	Row, Width, Dims int
}

func (e *WidthError) Error() string {
	return fmt.Sprintf("point: point %d has %d dims, want %d", e.Row, e.Width, e.Dims)
}

// MustDataset is NewDataset that panics on error; intended for tests
// and examples with literal data.
func MustDataset(dims int, pts []Point) *Dataset {
	ds, err := NewDataset(dims, pts)
	if err != nil {
		panic(err)
	}
	return ds
}

// Len returns the number of points.
func (d *Dataset) Len() int { return len(d.Points) }

// Clone deep-copies the dataset.
func (d *Dataset) Clone() *Dataset {
	pts := make([]Point, len(d.Points))
	for i, p := range d.Points {
		pts[i] = p.Clone()
	}
	return &Dataset{Dims: d.Dims, Points: pts}
}

// Bounds returns the per-dimension minimum and maximum over the
// dataset. It returns an error for an empty dataset, because bounds of
// nothing are undefined and downstream quantizers need real intervals,
// and a *WidthError for the first row whose width is not d.Dims.
func (d *Dataset) Bounds() (mins, maxs []float64, err error) {
	if len(d.Points) == 0 {
		return nil, nil, errors.New("point: bounds of empty dataset")
	}
	mins = make([]float64, d.Dims)
	maxs = make([]float64, d.Dims)
	if p := d.Points[0]; len(p) != d.Dims {
		return nil, nil, &WidthError{Row: 0, Width: len(p), Dims: d.Dims}
	}
	copy(mins, d.Points[0])
	copy(maxs, d.Points[0])
	for i, p := range d.Points[1:] {
		if len(p) != d.Dims {
			return nil, nil, &WidthError{Row: i + 1, Width: len(p), Dims: d.Dims}
		}
		for k, v := range p {
			if v < mins[k] {
				mins[k] = v
			}
			if v > maxs[k] {
				maxs[k] = v
			}
		}
	}
	return mins, maxs, nil
}

// SortLexicographic orders points by coordinates, first dimension most
// significant. Useful for canonicalizing skyline results in tests.
func SortLexicographic(pts []Point) {
	sort.Slice(pts, func(i, j int) bool {
		return Less(pts[i], pts[j])
	})
}

// Less is the lexicographic order used by SortLexicographic.
func Less(p, q Point) bool {
	for i := range p {
		if i >= len(q) {
			return false
		}
		if p[i] != q[i] {
			return p[i] < q[i]
		}
	}
	return len(p) < len(q)
}
