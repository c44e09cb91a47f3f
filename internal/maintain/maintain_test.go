package maintain

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"

	"zskyline/internal/dominance"
	"zskyline/internal/gen"
	"zskyline/internal/point"
	"zskyline/internal/seq"
)

func sameSet(t *testing.T, got, want []point.Point, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %d points, want %d", label, len(got), len(want))
	}
	g := append([]point.Point(nil), got...)
	w := append([]point.Point(nil), want...)
	point.SortLexicographic(g)
	point.SortLexicographic(w)
	for i := range g {
		if !g[i].Equal(w[i]) {
			t.Fatalf("%s: [%d] = %v, want %v", label, i, g[i], w[i])
		}
	}
}

func TestValidation(t *testing.T) {
	if _, err := NewUnit(0, 8); err == nil {
		t.Error("zero dims accepted")
	}
	m, err := NewUnit(3, 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Insert([]point.Point{{1, 2}}); err == nil {
		t.Error("dim mismatch accepted")
	}
	if n, err := m.Insert(nil); err != nil || n != 0 {
		t.Errorf("empty insert: %d %v", n, err)
	}
}

// Property: after any sequence of batches, the maintained skyline
// equals the brute-force skyline of everything inserted.
func TestIncrementalMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 25; trial++ {
		d := 2 + rng.Intn(4)
		m, err := NewUnit(d, 8)
		if err != nil {
			t.Fatal(err)
		}
		var all []point.Point
		batches := 1 + rng.Intn(6)
		for b := 0; b < batches; b++ {
			ds := gen.Synthetic(gen.Distribution(rng.Intn(3)), 50+rng.Intn(300), d, rng.Int63())
			all = append(all, ds.Points...)
			if _, err := m.Insert(ds.Points); err != nil {
				t.Fatal(err)
			}
			sameSet(t, m.Skyline(), seq.BruteForce(all), "after batch")
		}
		if m.Seen() != int64(len(all)) {
			t.Errorf("seen %d, want %d", m.Seen(), len(all))
		}
	}
}

func TestInsertReturnsAcceptedCount(t *testing.T) {
	m, _ := NewUnit(2, 10)
	if n, _ := m.Insert([]point.Point{{0.5, 0.5}, {0.6, 0.6}}); n != 1 {
		t.Errorf("first batch accepted %d, want 1 (one dominates the other)", n)
	}
	// Entirely dominated batch: zero accepted.
	if n, _ := m.Insert([]point.Point{{0.9, 0.9}, {0.7, 0.7}}); n != 0 {
		t.Errorf("dominated batch accepted %d, want 0", n)
	}
	// A point dominating everything: exactly one accepted, size 1.
	if n, _ := m.Insert([]point.Point{{0.1, 0.1}}); n != 1 {
		t.Errorf("dominating point accepted %d, want 1", n)
	}
	if m.Size() != 1 {
		t.Errorf("size = %d, want 1", m.Size())
	}

	// Random batches under Pareto and flex: the count is the number of
	// batch rows nothing inserted so far dominates. Batches mix fresh
	// rows, copies of current skyline rows, copies inside the batch, and
	// rows a skyline row dominates; every fourth batch is only the last.
	rng := rand.New(rand.NewSource(37))
	const d = 3
	for _, prov := range append([]dominance.Provider{dominance.Pareto{}}, transitiveProviders(t, d)[0]) {
		m := newUnitUnder(t, prov, d, 8)
		var all []point.Point
		for batch := 0; batch < 40; batch++ {
			sky := m.Skyline()
			var pts []point.Point
			for n := 1 + rng.Intn(30); len(pts) < n; {
				k := rng.Intn(4)
				if batch%4 == 3 {
					k = 0
				}
				switch {
				case k == 0 && len(sky) > 0:
					q := sky[rng.Intn(len(sky))].Clone()
					q[rng.Intn(d)] += 0.05
					pts = append(pts, q)
				case k == 1 && len(sky) > 0:
					pts = append(pts, sky[rng.Intn(len(sky))].Clone())
				case k == 2 && len(pts) > 0:
					pts = append(pts, pts[rng.Intn(len(pts))].Clone())
				default:
					p := make(point.Point, d)
					for i := range p {
						p[i] = float64(rng.Intn(20)) / 20
					}
					pts = append(pts, p)
				}
			}
			all = append(all, pts...)
			want := 0
		rows:
			for _, p := range pts {
				for _, q := range all {
					if prov.Dominates(q, p) {
						continue rows
					}
				}
				want++
			}
			got, err := m.Insert(pts)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("%s batch %d: accepted %d of %d rows, brute force says %d", prov.Name(), batch, got, len(pts), want)
			}
		}
		sameSet(t, m.Skyline(), dominance.BruteForce(prov, all), prov.Name())
	}
}

func TestDominated(t *testing.T) {
	m, _ := NewUnit(2, 10)
	m.Insert([]point.Point{{0.3, 0.3}})
	if !m.Dominated(point.Point{0.5, 0.5}) {
		t.Error("dominated point not detected")
	}
	if m.Dominated(point.Point{0.3, 0.3}) {
		t.Error("equal point wrongly dominated")
	}
	if m.Dominated(point.Point{0.1, 0.9}) {
		t.Error("incomparable point wrongly dominated")
	}
}

func TestConcurrentReadersAndWriters(t *testing.T) {
	m, _ := NewUnit(3, 8)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			ds := gen.Synthetic(gen.Independent, 500, 3, seed)
			for i := 0; i < 5; i++ {
				m.Insert(ds.Points[i*100 : (i+1)*100])
				m.Skyline()
				m.Size()
			}
		}(int64(w))
	}
	wg.Wait()
	if m.Seen() != 4*500 {
		t.Errorf("seen = %d", m.Seen())
	}
	// Result still exact.
	var all []point.Point
	for w := 0; w < 4; w++ {
		all = append(all, gen.Synthetic(gen.Independent, 500, 3, int64(w)).Points...)
	}
	sameSet(t, m.Skyline(), seq.BruteForce(all), "concurrent")
}

func TestStatsAccumulate(t *testing.T) {
	m, _ := NewUnit(3, 8)
	ds := gen.Synthetic(gen.AntiCorrelated, 1000, 3, 1)
	m.Insert(ds.Points)
	if m.Stats().DominanceTests == 0 {
		t.Error("no dominance tests recorded")
	}
}

func BenchmarkInsertBatch1k(b *testing.B) {
	m, _ := NewUnit(4, 16)
	batches := make([][]point.Point, 16)
	for i := range batches {
		batches[i] = gen.Synthetic(gen.Independent, 1000, 4, int64(i)).Points
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Insert(batches[i%len(batches)])
	}
}

func TestSaveLoadRoundtrip(t *testing.T) {
	m, err := New(3, 10, []float64{0, 0, 0}, []float64{2, 4, 8})
	if err != nil {
		t.Fatal(err)
	}
	ds := gen.Synthetic(gen.AntiCorrelated, 2000, 3, 3)
	if _, err := m.Insert(ds.Points); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Seen() != m.Seen() || restored.Size() != m.Size() {
		t.Fatalf("restored seen=%d size=%d, want %d/%d",
			restored.Seen(), restored.Size(), m.Seen(), m.Size())
	}
	sameSet(t, restored.Skyline(), m.Skyline(), "restored skyline")
	// Restored maintainer keeps working and stays exact.
	more := gen.Synthetic(gen.Independent, 1000, 3, 4)
	if _, err := restored.Insert(more.Points); err != nil {
		t.Fatal(err)
	}
	all := append(append([]point.Point{}, ds.Points...), more.Points...)
	sameSet(t, restored.Skyline(), seq.BruteForce(all), "after more inserts")
}

func TestViewAndVersion(t *testing.T) {
	m, _ := NewUnit(2, 8)
	if v, version := m.View(); len(v) != 0 || version != 0 {
		t.Fatalf("fresh view = %d points @ v%d", len(v), version)
	}
	m.Insert([]point.Point{{0.5, 0.5}, {0.2, 0.8}})
	v1, ver1 := m.View()
	if ver1 != 1 || len(v1) != 2 {
		t.Fatalf("view after insert = %d points @ v%d, want 2 @ v1", len(v1), ver1)
	}
	// Repeat reads share the cached snapshot — no copy per call.
	v1b, _ := m.View()
	if &v1[0] != &v1b[0] {
		t.Error("View copied despite no intervening insert")
	}
	// An insert bumps the version and invalidates the view; the old
	// snapshot stays intact for readers still holding it.
	m.Insert([]point.Point{{0.1, 0.1}})
	v2, ver2 := m.View()
	if ver2 != 2 || len(v2) != 1 {
		t.Fatalf("view after dominating insert = %d points @ v%d, want 1 @ v2", len(v2), ver2)
	}
	if len(v1) != 2 {
		t.Error("earlier snapshot mutated by insert")
	}
	// Empty inserts do not bump the version.
	m.Insert(nil)
	if m.Version() != 2 {
		t.Errorf("empty insert bumped version to %d", m.Version())
	}
}

func TestLoadCorruption(t *testing.T) {
	m, _ := NewUnit(2, 8)
	m.Insert([]point.Point{{0.5, 0.5}})
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	if _, err := Load(bytes.NewReader(raw[:10])); err == nil {
		t.Error("truncated header accepted")
	}
	bad := append([]byte(nil), raw...)
	bad[len(bad)-2] ^= 0xff // corrupt skyline payload/CRC
	if _, err := Load(bytes.NewReader(bad)); err == nil {
		t.Error("corrupted payload accepted")
	}
}
