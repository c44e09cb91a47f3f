package maintain

import (
	"bytes"
	"encoding/binary"
	"flag"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"zskyline/internal/codec"
	"zskyline/internal/dominance"
	"zskyline/internal/point"
)

// The committed snapshots pin the save format: whatever the maintainer
// keeps in memory, a snapshot written by an earlier build must load to
// the same skyline, points seen, version and relation. Rewrite them with
// `go test ./internal/maintain -run TestSnapshotFixtures -update` only
// when the format itself changes on purpose.
var updateFixtures = flag.Bool("update", false, "rewrite the testdata snapshots")

const (
	flexFixture   = "testdata/zmt2-flex.snap"
	legacyFixture = "testdata/legacy-pareto.snap"
	flexDesc      = "flex:4,2,1;8,2,1;4,4,1;4,2,2"
)

// fixtureRows returns n anti-correlated rows of d coordinates from
// seed, each a multiple of scale[k]/20 near the simplex: ties and
// duplicates on purpose.
func fixtureRows(seed int64, n, d int, scale []float64) []point.Point {
	rng := rand.New(rand.NewSource(seed))
	out := make([]point.Point, n)
	v := make([]float64, d)
	for i := range out {
		sum := 0.0
		for k := range v {
			v[k] = float64(1 + rng.Intn(20))
			sum += v[k]
		}
		p := make(point.Point, d)
		for k := range p {
			p[k] = scale[k] * (math.Round(20*v[k]/sum) + float64(rng.Intn(3))) / 20
		}
		out[i] = p
	}
	return out
}

// flexBatches are the three inserts the ZMT2 fixture holds, over the
// box [0,2]×[0,4]×[0,8].
func flexBatches() [][]point.Point {
	scale := []float64{2, 4, 8}
	return [][]point.Point{fixtureRows(101, 40, 3, scale), fixtureRows(102, 40, 3, scale), fixtureRows(103, 40, 3, scale)}
}

// legacyRows are the rows whose Pareto skyline the legacy fixture holds.
func legacyRows() []point.Point { return fixtureRows(104, 300, 2, []float64{1, 1}) }

func writeFixtures(t *testing.T) {
	prov, err := dominance.Parse(flexDesc)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewUnder(prov, 3, 10, []float64{0, 0, 0}, []float64{2, 4, 8})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range flexBatches() {
		if _, err := m.Insert(b); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Dir(flexFixture), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(flexFixture, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	// The legacy header predates descriptors and versions: bits, dims,
	// points seen, the box, then the skyline in ZSKY form.
	rows := legacyRows()
	var legacy []byte
	legacy = binary.LittleEndian.AppendUint32(legacy, 8)
	legacy = binary.LittleEndian.AppendUint32(legacy, 2)
	legacy = binary.LittleEndian.AppendUint64(legacy, uint64(len(rows)))
	for k := 0; k < 2; k++ {
		legacy = binary.LittleEndian.AppendUint64(legacy, math.Float64bits(0))
		legacy = binary.LittleEndian.AppendUint64(legacy, math.Float64bits(1))
	}
	var sky bytes.Buffer
	if err := codec.WriteBinary(&sky, &point.Dataset{Dims: 2, Points: dominance.BruteForce(dominance.Pareto{}, rows)}); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(legacyFixture, append(legacy, sky.Bytes()...), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotFixtures loads both committed snapshots and pins what
// they restore: the skyline set (against the brute-force skyline of the
// rows that went in, and by size), points seen, version and relation.
func TestSnapshotFixtures(t *testing.T) {
	if *updateFixtures {
		writeFixtures(t)
	}
	flex, err := dominance.Parse(flexDesc)
	if err != nil {
		t.Fatal(err)
	}
	var flexAll []point.Point
	for _, b := range flexBatches() {
		flexAll = append(flexAll, b...)
	}
	for _, tc := range []struct {
		file       string
		prov       dominance.Provider
		rows       []point.Point
		desc       string
		size       int
		seen       int64
		version    uint64
		dims, bits int
	}{
		{flexFixture, flex, flexAll, flexDesc, 9, 120, 3, 3, 10},
		{legacyFixture, dominance.Pareto{}, legacyRows(), "pareto", 34, 300, 1, 2, 8},
	} {
		raw, err := os.ReadFile(tc.file)
		if err != nil {
			t.Fatal(err)
		}
		m, err := Load(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("%s: %v", tc.file, err)
		}
		if got := m.Descriptor().String(); got != tc.desc {
			t.Errorf("%s: descriptor %q, want %q", tc.file, got, tc.desc)
		}
		if m.Seen() != tc.seen || m.Version() != tc.version || m.Dims() != tc.dims || m.Bits() != tc.bits {
			t.Errorf("%s: seen=%d version=%d dims=%d bits=%d, want %d/%d/%d/%d", tc.file,
				m.Seen(), m.Version(), m.Dims(), m.Bits(), tc.seen, tc.version, tc.dims, tc.bits)
		}
		if m.Size() != tc.size {
			t.Errorf("%s: %d skyline rows, want %d", tc.file, m.Size(), tc.size)
		}
		sameSet(t, m.Skyline(), dominance.BruteForce(tc.prov, tc.rows), tc.file)
	}
}
