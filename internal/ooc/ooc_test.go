package ooc

import (
	"os"
	"path/filepath"
	"testing"

	"zskyline/internal/codec"
	"zskyline/internal/gen"
	"zskyline/internal/point"
	"zskyline/internal/seq"
)

func writeTemp(t *testing.T, ds *point.Dataset) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "data.zsky")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := codec.WriteBinary(f, ds); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

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

func TestSkylineFileTwoPass(t *testing.T) {
	for _, dist := range []gen.Distribution{gen.Independent, gen.AntiCorrelated} {
		ds := gen.Synthetic(dist, 20000, 4, 9)
		path := writeTemp(t, ds)
		got, err := SkylineFile(path, Options{BatchSize: 700})
		if err != nil {
			t.Fatal(err)
		}
		sameSet(t, got, seq.SB(ds.Points, nil), dist.String())
	}
}

// Half a bounding box is no bounding box: the bounds pass runs, from
// scratch, and leaves the caller's slice as it was.
func TestSkylineFileHalfBounds(t *testing.T) {
	ds := gen.Synthetic(gen.AntiCorrelated, 3000, 3, 13)
	path := writeTemp(t, ds)
	mins := []float64{0.5, 0.5, 0.5}
	got, err := SkylineFile(path, Options{BatchSize: 500, Mins: mins})
	if err != nil {
		t.Fatal(err)
	}
	sameSet(t, got, seq.SB(ds.Points, nil), "mins only")
	if !point.Point(mins).Equal(point.Point{0.5, 0.5, 0.5}) {
		t.Errorf("caller's Mins rewritten to %v", mins)
	}
}

func TestBatchSizeOne(t *testing.T) {
	ds := gen.Synthetic(gen.Independent, 300, 2, 3)
	path := writeTemp(t, ds)
	got, err := SkylineFile(path, Options{BatchSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	sameSet(t, got, seq.BruteForce(ds.Points), "batch=1")
}

func TestCorruptFileDetected(t *testing.T) {
	ds := gen.Synthetic(gen.Independent, 500, 3, 1)
	path := writeTemp(t, ds)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0xff // corrupt the checksum
	bad := filepath.Join(t.TempDir(), "bad.zsky")
	if err := os.WriteFile(bad, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := SkylineFile(bad, Options{}); err == nil {
		t.Error("corrupted file accepted")
	}
}

func TestMissingAndEmptyFiles(t *testing.T) {
	if _, err := SkylineFile("/nonexistent.zsky", Options{}); err == nil {
		t.Error("missing file accepted")
	}
	empty := &point.Dataset{Dims: 2}
	path := filepath.Join(t.TempDir(), "empty.zsky")
	f, _ := os.Create(path)
	if err := codec.WriteBinary(f, empty); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, err := SkylineFile(path, Options{}); err == nil {
		t.Error("empty file should error in two-pass bounds scan")
	}
}
