// Package dominance makes the dominance relation — the innermost
// predicate of every skyline kernel — pluggable. A Provider bundles a
// point-pair test, a block-row test over flat []float64 strides, a set
// of capability flags that tell index structures which Z-region pruning
// rules remain sound, and a serializable wire descriptor so a relation
// chosen on the coordinator reaches every distributed worker.
//
// Four providers ship with the library:
//
//   - Pareto: the classic relation (smaller is better, no worse
//     everywhere, strictly better somewhere). The zero-overhead default:
//     kernels detect it with IsPareto and keep their hardcoded fast
//     paths.
//   - Flex: F-dominance under a family of monotone weighted-sum scoring
//     functions (De Lorenzis & Martinenghi): p F-dominates q when every
//     scoring function weakly prefers p and at least one strictly does.
//     The flexible skyline is a subset of the Pareto skyline.
//   - KDom: k-dominance (Chan et al., SIGMOD 2006): no worse on at
//     least k of d dimensions, strictly better on one of them. Not
//     transitive — pipelines must re-verify candidates against the full
//     dataset.
//   - Robust: margin dominance: p dominates q only when p beats q by
//     more than Rho in every dimension, the skyline under measurement
//     uncertainty. The robust skyline is a superset of the Pareto
//     skyline.
//
// Capability soundness (the contract index structures rely on):
//
//   - ParetoImplies: Pareto dominance implies provider dominance.
//     Gates every *positive* grid cut: "this region's max corner is
//     grid-dominated, so everything inside is Pareto-dominated" only
//     eliminates under the provider if Pareto elimination transfers.
//   - ImpliesPareto: provider dominance implies Pareto dominance.
//     Gates every *negative* grid cut: "nothing in this region can
//     Pareto-dominate p, so skip it" only skips provider dominators if
//     every provider dominator is also a Pareto dominator. It also
//     makes coordinate-sum order a topological order for the provider,
//     which the sort-based kernels' append-only window requires.
//   - Transitive: the relation is a strict partial order. Without it,
//     window algorithms and partition/merge pipelines produce candidate
//     supersets that must be verified against the full dataset
//     (elimination by a real dataset point is always sound; skipping
//     the final verification is not).
package dominance

import (
	"zskyline/internal/point"
)

// Caps declares which structural properties of Pareto dominance a
// provider preserves; index structures consult them before reusing
// Pareto-derived pruning rules. See the package comment for the exact
// soundness contract of each flag.
type Caps struct {
	// ParetoImplies: if p Pareto-dominates q then p provider-dominates
	// q. Enables positive region cuts and Pareto-based pre-filters
	// (e.g. the sample-skyline map filter).
	ParetoImplies bool
	// ImpliesPareto: if p provider-dominates q then p Pareto-dominates
	// q. Enables negative region cuts and sum-order windows.
	ImpliesPareto bool
	// Transitive: the relation is transitive (with irreflexivity, a
	// strict partial order). Required to skip the final full-dataset
	// verification pass.
	Transitive bool
}

// Provider is a pluggable dominance relation. Implementations must be
// irreflexive (no point dominates itself or a coordinate-equal copy)
// and must answer identically through Dominates and DominatesRows.
// Providers are immutable after construction and safe for concurrent
// use.
type Provider interface {
	// Name returns the registry kind ("pareto", "flex", ...).
	Name() string
	// Dominates reports whether p dominates q under this relation.
	Dominates(p, q point.Point) bool
	// DominatesRows reports whether row i of a dominates row j of b,
	// reading the flat strides directly.
	DominatesRows(a point.Block, i int, b point.Block, j int) bool
	// Caps declares which Pareto pruning rules stay sound.
	Caps() Caps
	// Descriptor returns the serializable wire form; it must
	// reconstruct an equivalent provider via Descriptor.Provider.
	Descriptor() Descriptor
}

// Pareto is the classic skyline dominance relation — the default
// provider and the zero-overhead fast path (kernels special-case it via
// IsPareto and keep their hardcoded loops).
type Pareto struct{}

// Name implements Provider.
func (Pareto) Name() string { return KindPareto }

// Dominates implements Provider via the exact float test of package
// point.
func (Pareto) Dominates(p, q point.Point) bool { return point.Dominates(p, q) }

// DominatesRows implements Provider over flat strides.
func (Pareto) DominatesRows(a point.Block, i int, b point.Block, j int) bool {
	return point.DominatesRows(a, i, b, j)
}

// Caps implements Provider: Pareto trivially preserves every Pareto
// property.
func (Pareto) Caps() Caps {
	return Caps{ParetoImplies: true, ImpliesPareto: true, Transitive: true}
}

// Descriptor implements Provider.
func (Pareto) Descriptor() Descriptor { return Descriptor{Kind: KindPareto} }

// IsPareto reports whether prov is the classic relation (or nil, which
// every layer treats as Pareto). Kernels use it to route to their
// hardcoded fast path, keeping the default configuration allocation-
// and branch-identical to the pre-provider code.
func IsPareto(prov Provider) bool {
	if prov == nil {
		return true
	}
	_, ok := prov.(Pareto)
	return ok
}

// Flex is F-dominance under a finite family of monotone weighted-sum
// scoring functions: p F-dominates q when w·p <= w·q for every weight
// vector w in the family and w·p < w·q for at least one. All weights
// must be non-negative (so the functions are monotone) and every
// vector must have at least one positive weight.
type Flex struct {
	weights [][]float64
	caps    Caps
}

// NewFlex validates the weight family and builds a Flex provider. At
// least one vector is required; vectors must share one length, contain
// only finite non-negative weights, and not be all-zero.
func NewFlex(weights [][]float64) (*Flex, error) {
	d := Descriptor{Kind: KindFlex, Weights: weights}
	if err := d.validate(); err != nil {
		return nil, err
	}
	ws := make([][]float64, len(weights))
	for i, w := range weights {
		ws[i] = append([]float64(nil), w...)
	}
	return &Flex{weights: ws, caps: flexCaps(ws)}, nil
}

// flexCaps derives the capability flags from the weight family.
// ParetoImplies needs every dimension to carry positive weight in some
// vector: a Pareto improvement strict only in dimension j yields a
// strict score improvement only through a vector with w[j] > 0.
// ImpliesPareto holds exactly when the family constrains every
// dimension independently, which a weighted-sum family cannot certify
// in general, so it is left false. F-dominance is transitive: weak
// inequalities compose per function and strictness survives through
// the strict function of the first pair.
func flexCaps(ws [][]float64) Caps {
	dims := len(ws[0])
	covered := make([]bool, dims)
	for _, w := range ws {
		for j, v := range w {
			if v > 0 {
				covered[j] = true
			}
		}
	}
	paretoImplies := true
	for _, c := range covered {
		if !c {
			paretoImplies = false
			break
		}
	}
	return Caps{ParetoImplies: paretoImplies, ImpliesPareto: false, Transitive: true}
}

// Name implements Provider.
func (f *Flex) Name() string { return KindFlex }

// Dominates implements Provider: all scores no worse, one strictly
// better. Points whose dimensionality does not match the weight
// vectors are never comparable.
func (f *Flex) Dominates(p, q point.Point) bool {
	if len(p) != len(q) || len(p) != len(f.weights[0]) {
		return false
	}
	strict := false
	for _, w := range f.weights {
		sp, sq := 0.0, 0.0
		for i, wi := range w {
			sp += wi * p[i]
			sq += wi * q[i]
		}
		if sp > sq {
			return false
		}
		if sp < sq {
			strict = true
		}
	}
	return strict
}

// DominatesRows implements Provider over flat strides.
func (f *Flex) DominatesRows(a point.Block, i int, b point.Block, j int) bool {
	dims := a.Dims
	if dims != b.Dims || dims != len(f.weights[0]) {
		return false
	}
	pa, pb := a.Data[i*dims:(i+1)*dims], b.Data[j*dims:(j+1)*dims]
	strict := false
	for _, w := range f.weights {
		sp, sq := 0.0, 0.0
		for k, wk := range w {
			sp += wk * pa[k]
			sq += wk * pb[k]
		}
		if sp > sq {
			return false
		}
		if sp < sq {
			strict = true
		}
	}
	return strict
}

// Caps implements Provider.
func (f *Flex) Caps() Caps { return f.caps }

// Descriptor implements Provider.
func (f *Flex) Descriptor() Descriptor {
	ws := make([][]float64, len(f.weights))
	for i, w := range f.weights {
		ws[i] = append([]float64(nil), w...)
	}
	return Descriptor{Kind: KindFlex, Weights: ws}
}

// KDom is k-dominance (Chan et al., SIGMOD 2006): p k-dominates q when
// p is no worse than q in at least K dimensions and strictly better in
// at least one of those K. Lowering K below the dimensionality shrinks
// the result set aggressively — the standard remedy for skyline
// explosion in high dimensions — at the price of transitivity.
type KDom struct {
	k int
}

// NewKDom validates k >= 1 and builds a KDom provider. The
// dimensionality bound (k <= d) is checked per comparison, since the
// provider is constructed before data is seen; k >= d degenerates to
// classic Pareto behavior on d-dimensional data.
func NewKDom(k int) (*KDom, error) {
	if err := (Descriptor{Kind: KindKDom, K: k}).validate(); err != nil {
		return nil, err
	}
	return &KDom{k: k}, nil
}

// Name implements Provider.
func (kd *KDom) Name() string { return KindKDom }

// Dominates implements Provider.
func (kd *KDom) Dominates(p, q point.Point) bool {
	if len(p) != len(q) || kd.k > len(p) {
		return false
	}
	noWorse, better := 0, false
	for i := range p {
		if p[i] <= q[i] {
			noWorse++
			if p[i] < q[i] {
				better = true
			}
		}
	}
	return noWorse >= kd.k && better
}

// DominatesRows implements Provider over flat strides.
func (kd *KDom) DominatesRows(a point.Block, i int, b point.Block, j int) bool {
	dims := a.Dims
	if dims != b.Dims || kd.k > dims {
		return false
	}
	pa, pb := a.Data[i*dims:(i+1)*dims], b.Data[j*dims:(j+1)*dims]
	noWorse, better := 0, false
	for k := 0; k < dims; k++ {
		if pa[k] <= pb[k] {
			noWorse++
			if pa[k] < pb[k] {
				better = true
			}
		}
	}
	return noWorse >= kd.k && better
}

// Caps implements Provider. Pareto dominance (no worse everywhere,
// better somewhere) is a fortiori k-dominance for any k <= d, so
// positive cuts transfer; a k-dominator may be worse on d-k
// dimensions, so negative cuts do not; and k-dominance is famously not
// transitive (it admits cycles), so every pipeline result is a
// candidate set until verified.
func (kd *KDom) Caps() Caps {
	return Caps{ParetoImplies: true, ImpliesPareto: false, Transitive: false}
}

// Descriptor implements Provider.
func (kd *KDom) Descriptor() Descriptor { return Descriptor{Kind: KindKDom, K: kd.k} }

// Robust is margin dominance: p dominates q only when p[i] + Rho <
// q[i] in every dimension — p beats q by more than Rho everywhere.
// Points that are Pareto-dominated, but only within the margin,
// survive: the robust skyline is a superset of the Pareto skyline and
// is stable under coordinate perturbations smaller than Rho/2. Rho = 0
// degenerates to the strict product order (better everywhere).
type Robust struct {
	rho float64
}

// NewRobust validates rho >= 0 (finite) and builds a Robust provider.
func NewRobust(rho float64) (*Robust, error) {
	if err := (Descriptor{Kind: KindRobust, Rho: rho}).validate(); err != nil {
		return nil, err
	}
	return &Robust{rho: rho}, nil
}

// Name implements Provider.
func (r *Robust) Name() string { return KindRobust }

// Dominates implements Provider.
func (r *Robust) Dominates(p, q point.Point) bool {
	if len(p) != len(q) || len(p) == 0 {
		return false
	}
	for i := range p {
		if !(p[i]+r.rho < q[i]) {
			return false
		}
	}
	return true
}

// DominatesRows implements Provider over flat strides.
func (r *Robust) DominatesRows(a point.Block, i int, b point.Block, j int) bool {
	dims := a.Dims
	if dims != b.Dims || dims == 0 {
		return false
	}
	pa, pb := a.Data[i*dims:(i+1)*dims], b.Data[j*dims:(j+1)*dims]
	for k := 0; k < dims; k++ {
		if !(pa[k]+r.rho < pb[k]) {
			return false
		}
	}
	return true
}

// Caps implements Provider. Strictly-better-everywhere-by-Rho implies
// Pareto dominance (negative cuts and sum order stay sound) but is not
// implied by it (a Pareto dominator may win by less than the margin,
// so positive cuts must not fire). The relation is transitive for any
// Rho >= 0.
func (r *Robust) Caps() Caps {
	return Caps{ParetoImplies: false, ImpliesPareto: true, Transitive: true}
}

// Descriptor implements Provider.
func (r *Robust) Descriptor() Descriptor { return Descriptor{Kind: KindRobust, Rho: r.rho} }

// BruteForce is the quadratic per-provider oracle: keep p iff no other
// point dominates it under prov. The reference that every executor is
// property-tested against.
func BruteForce(prov Provider, pts []point.Point) []point.Point {
	var out []point.Point
	for i, p := range pts {
		dominated := false
		for j, q := range pts {
			if i == j {
				continue
			}
			if prov.Dominates(q, p) {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, p)
		}
	}
	return out
}
