package dominance

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"zskyline/internal/point"
)

// testProviders returns one instance of each built-in provider,
// parameterized for d-dimensional data.
func testProviders(t testing.TB, d int) []Provider {
	t.Helper()
	flex, err := NewFlex([][]float64{allOnes(d), firstHeavy(d)})
	if err != nil {
		t.Fatalf("NewFlex: %v", err)
	}
	k := d - 1
	if k < 1 {
		k = 1
	}
	kdom, err := NewKDom(k)
	if err != nil {
		t.Fatalf("NewKDom: %v", err)
	}
	robust, err := NewRobust(0.05)
	if err != nil {
		t.Fatalf("NewRobust: %v", err)
	}
	return []Provider{Pareto{}, flex, kdom, robust}
}

func allOnes(d int) []float64 {
	w := make([]float64, d)
	for i := range w {
		w[i] = 1
	}
	return w
}

func firstHeavy(d int) []float64 {
	w := allOnes(d)
	w[0] = 4
	return w
}

func randomPoints(rng *rand.Rand, n, d int) []point.Point {
	pts := make([]point.Point, n)
	for i := range pts {
		p := make(point.Point, d)
		for j := range p {
			// A coarse grid provokes ties, duplicates, and margin
			// boundary cases.
			p[j] = float64(rng.Intn(8)) / 4
		}
		pts[i] = p
	}
	// Add exact duplicates of a few points.
	for i := 0; i < n/10; i++ {
		pts = append(pts, pts[rng.Intn(n)].Clone())
	}
	return pts
}

// TestProviderCapsSound checks the declared capability flags against
// their definitions on random pairs and triples: ParetoImplies,
// ImpliesPareto, transitivity, and irreflexivity (including
// coordinate-equal copies).
func TestProviderCapsSound(t *testing.T) {
	const d = 4
	rng := rand.New(rand.NewSource(1))
	pts := randomPoints(rng, 300, d)
	for _, prov := range testProviders(t, d) {
		caps := prov.Caps()
		for trial := 0; trial < 4000; trial++ {
			p := pts[rng.Intn(len(pts))]
			q := pts[rng.Intn(len(pts))]
			r := pts[rng.Intn(len(pts))]
			if caps.ParetoImplies && point.Dominates(p, q) && !prov.Dominates(p, q) {
				t.Fatalf("%s: ParetoImplies violated: %v pareto-dominates %v but provider disagrees", prov.Name(), p, q)
			}
			if caps.ImpliesPareto && prov.Dominates(p, q) && !point.Dominates(p, q) {
				t.Fatalf("%s: ImpliesPareto violated: %v provider-dominates %v but not pareto", prov.Name(), p, q)
			}
			if caps.Transitive && prov.Dominates(p, q) && prov.Dominates(q, r) && !prov.Dominates(p, r) {
				t.Fatalf("%s: transitivity violated on %v, %v, %v", prov.Name(), p, q, r)
			}
			if prov.Dominates(p, p) {
				t.Fatalf("%s: relation is not irreflexive at %v", prov.Name(), p)
			}
			if p.Equal(q) && prov.Dominates(p, q) {
				t.Fatalf("%s: coordinate-equal points %v dominate each other", prov.Name(), p)
			}
		}
	}
}

// TestKDomNotTransitiveWitness pins the reason KDom declares
// Transitive=false with a concrete 3-cycle.
func TestKDomNotTransitiveWitness(t *testing.T) {
	kd, err := NewKDom(2)
	if err != nil {
		t.Fatal(err)
	}
	// Classic k-dominance cycle for k=2, d=3.
	a := point.Point{1, 1, 3}
	b := point.Point{1, 3, 1}
	c := point.Point{3, 1, 1}
	if !kd.Dominates(a, b) || !kd.Dominates(b, c) || !kd.Dominates(c, a) {
		t.Fatalf("expected a 2-dominance cycle among %v %v %v", a, b, c)
	}
}

// TestDominatesRowsMatchesDominates pins the stride test to the
// point-pair test for every provider.
func TestDominatesRowsMatchesDominates(t *testing.T) {
	const d = 4
	rng := rand.New(rand.NewSource(2))
	pts := randomPoints(rng, 200, d)
	b := point.BlockOf(d, pts)
	for _, prov := range testProviders(t, d) {
		for trial := 0; trial < 3000; trial++ {
			i, j := rng.Intn(len(pts)), rng.Intn(len(pts))
			want := prov.Dominates(pts[i], pts[j])
			if got := prov.DominatesRows(b, i, b, j); got != want {
				t.Fatalf("%s: DominatesRows(%d,%d)=%v, Dominates=%v", prov.Name(), i, j, got, want)
			}
		}
	}
}

// TestSkylineBlockMatchesBruteForce is the kernel-level oracle test:
// the generic window kernel (sum-order or BNL, plus verification for
// non-transitive relations) must agree with the quadratic oracle as a
// multiset for every provider.
func TestSkylineBlockMatchesBruteForce(t *testing.T) {
	const d = 4
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{0, 1, 2, 17, 120} {
		pts := randomPoints(rng, n, d)
		if n == 0 {
			pts = nil
		}
		b := point.BlockOf(d, pts)
		for _, prov := range testProviders(t, d) {
			got := SkylineBlock(prov, b, nil).Points()
			want := BruteForce(prov, pts)
			assertSameMultiset(t, prov.Name(), got, want)
		}
	}
}

// TestSkylineBlockFloatTies runs every built-in provider over inputs
// on which a plain float-sum sort puts the dominated row first: equal
// sums in the first two, a NaN sum in the third. Pareto and robust walk
// point.SumOrder; flex and kdom take the eviction window.
func TestSkylineBlockFloatTies(t *testing.T) {
	for _, pts := range [][]point.Point{
		{{1e16, 1}, {1e16, 0}},
		{{0.1, 0.2, 0.30000000000000004}, {0.1, 0.2, 0.3}},
		{{math.Inf(-1), math.Inf(1)}, {math.Inf(-1), 5}},
	} {
		d := len(pts[0])
		b := point.BlockOf(d, pts)
		for _, prov := range testProviders(t, d) {
			got := SkylineBlock(prov, b, nil).Points()
			assertSameMultiset(t, fmt.Sprintf("%s on %v", prov.Name(), pts), got, BruteForce(prov, pts))
		}
		if got := SkylineBlock(Pareto{}, b, nil); got.Len() != 1 || !got.Row(0).Equal(pts[1]) {
			t.Errorf("pareto on %v kept %v, want only %v", pts, got.Points(), pts[1])
		}
	}
}

// TestFilterBlockSound checks that FilterBlock removes exactly the
// rows dominated by some row of against.
func TestFilterBlockSound(t *testing.T) {
	const d = 3
	rng := rand.New(rand.NewSource(4))
	cands := randomPoints(rng, 60, d)
	against := randomPoints(rng, 40, d)
	cb := point.BlockOf(d, cands)
	ab := point.BlockOf(d, against)
	for _, prov := range testProviders(t, d) {
		got := FilterBlock(prov, cb, ab, nil).Points()
		var want []point.Point
		for _, p := range cands {
			dominated := false
			for _, q := range against {
				if prov.Dominates(q, p) {
					dominated = true
					break
				}
			}
			if !dominated {
				want = append(want, p)
			}
		}
		assertSameMultiset(t, prov.Name(), got, want)
	}
}

// TestVerifyBlockExact checks that verifying an inflated candidate set
// (the full dataset) against itself yields exactly the oracle result.
func TestVerifyBlockExact(t *testing.T) {
	const d = 4
	rng := rand.New(rand.NewSource(5))
	pts := randomPoints(rng, 90, d)
	b := point.BlockOf(d, pts)
	for _, prov := range testProviders(t, d) {
		got := VerifyBlock(prov, b, b, nil).Points()
		want := BruteForce(prov, pts)
		assertSameMultiset(t, prov.Name(), got, want)
	}
}

// TestDescriptorRoundTrip pins Provider -> Descriptor -> Provider and
// the textual grammar Descriptor -> String -> Parse.
func TestDescriptorRoundTrip(t *testing.T) {
	for _, prov := range testProviders(t, 4) {
		d := prov.Descriptor()
		back, err := d.Provider()
		if err != nil {
			t.Fatalf("%s: Descriptor().Provider(): %v", prov.Name(), err)
		}
		if !reflect.DeepEqual(back.Descriptor(), d) {
			t.Fatalf("%s: descriptor drifted: %+v -> %+v", prov.Name(), d, back.Descriptor())
		}
		if back.Caps() != prov.Caps() {
			t.Fatalf("%s: caps drifted over the wire", prov.Name())
		}
		d2, err := ParseDescriptor(d.String())
		if err != nil {
			t.Fatalf("%s: Parse(%q): %v", prov.Name(), d.String(), err)
		}
		if !reflect.DeepEqual(d2, d) {
			t.Fatalf("%s: text round trip drifted: %+v -> %q -> %+v", prov.Name(), d, d.String(), d2)
		}
	}
}

// TestDescriptorGobRoundTrip checks the wire form survives gob — the
// encoding the rule broadcast uses.
func TestDescriptorGobRoundTrip(t *testing.T) {
	for _, prov := range testProviders(t, 4) {
		d := prov.Descriptor()
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(d); err != nil {
			t.Fatalf("%s: gob encode: %v", prov.Name(), err)
		}
		var got Descriptor
		if err := gob.NewDecoder(&buf).Decode(&got); err != nil {
			t.Fatalf("%s: gob decode: %v", prov.Name(), err)
		}
		if !reflect.DeepEqual(got, d) {
			t.Fatalf("%s: gob round trip drifted: %+v -> %+v", prov.Name(), d, got)
		}
	}
}

// TestParseRejectsBadInput enumerates grammar and validation errors.
func TestParseRejectsBadInput(t *testing.T) {
	for _, s := range []string{
		"nope", "pareto:1", "flex", "flex:", "flex:a,b", "flex:1,2;3",
		"flex:0,0", "flex:-1,2", "kdom", "kdom:x", "kdom:0", "kdom:-3",
		"robust:x", "robust:-0.5", "robust:NaN",
	} {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q): expected error, got none", s)
		}
	}
}

// TestParseAccepts covers the documented grammar.
func TestParseAccepts(t *testing.T) {
	for s, kind := range map[string]string{
		"pareto":       KindPareto,
		"":             KindPareto,
		"flex:1,2,1":   KindFlex,
		"flex:1,0;0,1": KindFlex,
		"flex: 1 , 2":  KindFlex,
		"kdom:3":       KindKDom,
		"robust":       KindRobust,
		"robust:0.25":  KindRobust,
	} {
		prov, err := Parse(s)
		if err != nil {
			t.Fatalf("Parse(%q): %v", s, err)
		}
		if prov.Name() != kind {
			t.Fatalf("Parse(%q) = %s, want %s", s, prov.Name(), kind)
		}
	}
}

// TestRegistryExtension registers a custom kind and reconstructs it
// from a descriptor.
func TestRegistryExtension(t *testing.T) {
	if err := Register("test-custom", func(d Descriptor) (Provider, error) {
		return Pareto{}, nil
	}); err != nil {
		t.Fatal(err)
	}
	prov, err := Descriptor{Kind: "test-custom"}.Provider()
	if err != nil {
		t.Fatalf("custom kind: %v", err)
	}
	if prov == nil {
		t.Fatal("custom kind returned nil provider")
	}
	found := false
	for _, k := range Kinds() {
		if k == "test-custom" {
			found = true
		}
	}
	if !found {
		t.Fatalf("Kinds() = %v missing test-custom", Kinds())
	}
}

// TestIsPareto pins the fast-path detection.
func TestIsPareto(t *testing.T) {
	if !IsPareto(nil) || !IsPareto(Pareto{}) {
		t.Fatal("nil and Pareto{} must be the fast path")
	}
	kd, _ := NewKDom(2)
	if IsPareto(kd) {
		t.Fatal("kdom must not take the Pareto fast path")
	}
}

func assertSameMultiset(t *testing.T, label string, got, want []point.Point) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %d points, want %d\ngot:  %v\nwant: %v", label, len(got), len(want), got, want)
	}
	count := map[string]int{}
	for _, p := range want {
		count[p.String()]++
	}
	for _, p := range got {
		count[p.String()]--
		if count[p.String()] < 0 {
			t.Fatalf("%s: unexpected point %v in result", label, p)
		}
	}
}
