package gen

import (
	"io"
	"math"
	"testing"

	"zskyline/internal/point"
	"zskyline/internal/seq"
)

func TestDeterminism(t *testing.T) {
	a := Synthetic(Independent, 500, 5, 42)
	b := Synthetic(Independent, 500, 5, 42)
	for i := range a.Points {
		if !a.Points[i].Equal(b.Points[i]) {
			t.Fatalf("same seed produced different data at %d", i)
		}
	}
	c := Synthetic(Independent, 500, 5, 43)
	same := true
	for i := range a.Points {
		if !a.Points[i].Equal(c.Points[i]) {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical data")
	}
}

func TestShapesAndBounds(t *testing.T) {
	for _, dist := range []Distribution{Independent, Correlated, AntiCorrelated} {
		ds := Synthetic(dist, 1000, 6, 7)
		if ds.Len() != 1000 || ds.Dims != 6 {
			t.Fatalf("%v: n=%d d=%d", dist, ds.Len(), ds.Dims)
		}
		for _, p := range ds.Points {
			for _, v := range p {
				if v < 0 || v > 1 {
					t.Fatalf("%v: coordinate %v out of [0,1]", dist, v)
				}
			}
		}
	}
}

// pearson computes the mean pairwise-dimension correlation coefficient.
func meanPairwiseCorrelation(ds *point.Dataset) float64 {
	d := ds.Dims
	n := float64(ds.Len())
	mean := make([]float64, d)
	for _, p := range ds.Points {
		for k, v := range p {
			mean[k] += v
		}
	}
	for k := range mean {
		mean[k] /= n
	}
	va := make([]float64, d)
	for _, p := range ds.Points {
		for k, v := range p {
			va[k] += (v - mean[k]) * (v - mean[k])
		}
	}
	total, pairs := 0.0, 0
	for i := 0; i < d; i++ {
		for j := i + 1; j < d; j++ {
			cov := 0.0
			for _, p := range ds.Points {
				cov += (p[i] - mean[i]) * (p[j] - mean[j])
			}
			denom := math.Sqrt(va[i] * va[j])
			if denom > 0 {
				total += cov / denom
				pairs++
			}
		}
	}
	return total / float64(pairs)
}

func TestCorrelationStructure(t *testing.T) {
	ind := meanPairwiseCorrelation(Synthetic(Independent, 4000, 4, 1))
	cor := meanPairwiseCorrelation(Synthetic(Correlated, 4000, 4, 1))
	ant := meanPairwiseCorrelation(Synthetic(AntiCorrelated, 4000, 4, 1))
	if math.Abs(ind) > 0.1 {
		t.Errorf("independent correlation = %v, want ~0", ind)
	}
	if cor < 0.7 {
		t.Errorf("correlated correlation = %v, want strongly positive", cor)
	}
	if ant > -0.15 {
		t.Errorf("anti-correlated correlation = %v, want negative", ant)
	}
}

// The defining skyline behaviour: |S| anti >> |S| indep >> |S| corr.
func TestSkylineSizeOrdering(t *testing.T) {
	n, d := 2000, 5
	sizes := map[Distribution]int{}
	for _, dist := range []Distribution{Independent, Correlated, AntiCorrelated} {
		ds := Synthetic(dist, n, d, 3)
		sizes[dist] = len(seq.SB(ds.Points, nil))
	}
	if !(sizes[AntiCorrelated] > sizes[Independent] && sizes[Independent] > sizes[Correlated]) {
		t.Errorf("skyline sizes anti=%d indep=%d corr=%d; want anti > indep > corr",
			sizes[AntiCorrelated], sizes[Independent], sizes[Correlated])
	}
	if sizes[Correlated] > n/50 {
		t.Errorf("correlated skyline %d too large", sizes[Correlated])
	}
}

func TestDistributionString(t *testing.T) {
	if Independent.String() != "independent" || AntiCorrelated.String() != "anti-correlated" {
		t.Error("distribution names wrong")
	}
	if Distribution(99).String() == "" {
		t.Error("unknown distribution should still render")
	}
}

func TestNBALike(t *testing.T) {
	ds := NBALike(350, 5)
	if ds.Len() != 350 || ds.Dims != 7 {
		t.Fatalf("NBA: n=%d d=%d", ds.Len(), ds.Dims)
	}
	// Role archetypes should induce anti-correlation between the
	// scoring-dominant and rebound-dominant dimensions.
	if c := meanPairwiseCorrelation(ds); c > 0.6 {
		t.Errorf("NBA mean correlation = %v; want weak/negative structure", c)
	}
	// Skyline should be a modest fraction but clearly plural.
	sky := seq.SB(ds.Points, nil)
	if len(sky) < 5 || len(sky) == ds.Len() {
		t.Errorf("NBA skyline = %d of %d", len(sky), ds.Len())
	}
}

func TestHOULike(t *testing.T) {
	ds := HOULike(1000, 5)
	if ds.Len() != 1000 || ds.Dims != 6 {
		t.Fatalf("HOU: n=%d d=%d", ds.Len(), ds.Dims)
	}
	for _, p := range ds.Points {
		sum := 0.0
		for _, v := range p {
			sum += v
		}
		if math.Abs(sum-1) > 1e-6 {
			t.Fatalf("HOU shares sum to %v, want 1", sum)
		}
	}
}

func TestHighDimSimulators(t *testing.T) {
	nus := NUSWideLike(200, 7)
	if nus.Dims != 225 || nus.Len() != 200 {
		t.Errorf("NUS-WIDE: n=%d d=%d", nus.Len(), nus.Dims)
	}
	fl := FlickrLike(100, 7)
	if fl.Dims != 512 || fl.Len() != 100 {
		t.Errorf("Flickr: n=%d d=%d", fl.Len(), fl.Dims)
	}
	db := DBPediaLike(150, 7)
	if db.Dims != 250 || db.Len() != 150 {
		t.Errorf("DBpedia: n=%d d=%d", db.Len(), db.Dims)
	}
	for _, ds := range []*point.Dataset{nus, fl, db} {
		for _, p := range ds.Points {
			for _, v := range p {
				if v < 0 || v > 1 || math.IsNaN(v) {
					t.Fatalf("coordinate %v out of range", v)
				}
			}
		}
	}
}

func TestDBPediaSparsity(t *testing.T) {
	ds := DBPediaLike(100, 9)
	for _, p := range ds.Points {
		active := 0
		for _, v := range p {
			if v < 0.999 {
				active++
			}
		}
		if active == 0 || active > 10 {
			t.Fatalf("document has %d active topics, want 1..10", active)
		}
	}
}

func TestGammaSamplePositive(t *testing.T) {
	ds := HOULike(50, 1)
	_ = ds
	// Directly exercise small-shape path via DBPediaLike's alpha 0.7.
	db := DBPediaLike(50, 1)
	if db.Len() != 50 {
		t.Fatal("DBPedia generation failed")
	}
}

// NewSource must reproduce Synthetic row-for-row regardless of batch
// size, and end with a clean io.EOF.
func TestSourceMatchesSynthetic(t *testing.T) {
	const n, d, seed = 1234, 5, 77
	want := Synthetic(AntiCorrelated, n, d, seed)
	src := NewSource(AntiCorrelated, n, d, seed)
	var rows int
	for {
		b, err := src.Next(97)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < b.Len(); i++ {
			if !b.Row(i).Equal(want.Points[rows+i]) {
				t.Fatalf("row %d drifted from Synthetic", rows+i)
			}
		}
		rows += b.Len()
	}
	if rows != n {
		t.Fatalf("streamed %d rows, want %d", rows, n)
	}
	if _, err := src.Next(1); err != io.EOF {
		t.Fatalf("exhausted source = %v, want io.EOF", err)
	}
}
