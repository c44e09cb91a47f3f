package exp

import (
	"context"
	"testing"

	"zskyline/internal/core"
	"zskyline/internal/gen"
	"zskyline/internal/partition"
	"zskyline/internal/point"
	"zskyline/internal/zbtree"
	"zskyline/internal/zorder"
)

func TestDataVolume(t *testing.T) {
	ds := point.MustDataset(2, []point.Point{{0, 0}, {2, 3}})
	q, err := dataVolume(ds)
	if err != nil || q != 6 {
		t.Errorf("volume = %v, err %v", q, err)
	}
	// Degenerate dimension treated as unit thickness.
	flat := point.MustDataset(2, []point.Point{{0, 5}, {2, 5}})
	q, err = dataVolume(flat)
	if err != nil || q != 2 {
		t.Errorf("flat volume = %v, err %v", q, err)
	}
	empty := &point.Dataset{Dims: 2}
	if _, err := dataVolume(empty); err == nil {
		t.Error("empty dataset accepted")
	}
}

func TestTotalDominanceVolume(t *testing.T) {
	ds := gen.Synthetic(gen.Independent, 3000, 3, 5)
	enc, _ := zorder.NewUnitEncoder(3, 10)
	zc, err := partition.NewZCurve(enc, partition.EncodeSample(enc, ds.Points, zbtree.ZSearch(enc, 0, ds.Points, nil)), 16)
	if err != nil {
		t.Fatal(err)
	}
	vt := totalDominanceVolume(enc, zc.Infos())
	if vt <= 0 {
		t.Errorf("V_t = %v, want positive", vt)
	}
	q, _ := dataVolume(ds)
	if vt > q*float64(len(zc.Infos())) {
		t.Errorf("V_t = %v implausibly large vs Q=%v", vt, q)
	}
}

func TestPredictPruningCases(t *testing.T) {
	p, err := predictPruning("correlated", 1000, 32, 0, 1)
	if err != nil || p.PrunedPoints != 968 {
		t.Errorf("correlated: %+v %v", p, err)
	}
	p, err = predictPruning("anti-correlated", 1000, 32, 0, 1)
	if err != nil || p.PrunedPoints != 484 {
		t.Errorf("anti: %+v %v", p, err)
	}
	p, err = predictPruning("independent", 1000, 32, 0.5, 1)
	if err != nil || p.PrunedPoints != 500 {
		t.Errorf("independent: %+v %v", p, err)
	}
	// Capped at n.
	p, _ = predictPruning("independent", 1000, 32, 99, 1)
	if p.PrunedPoints != 1000 {
		t.Errorf("cap: %+v", p)
	}
	if _, err := predictPruning("independent", 10, 2, 1, 0); err == nil {
		t.Error("zero volume accepted")
	}
	if _, err := predictPruning("weird", 10, 2, 1, 1); err == nil {
		t.Error("unknown distribution accepted")
	}
}

// The model should agree in order of magnitude with the measured
// pruning of the actual pipeline on correlated data (where the case
// analysis is sharpest).
func TestModelTracksMeasuredPruningCorrelated(t *testing.T) {
	ds := gen.Synthetic(gen.Correlated, 20000, 4, 11)
	cfg := core.Defaults()
	cfg.M = 16
	cfg.SampleRatio = 0.02
	cfg.Workers = 4
	eng, err := core.NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, rep, err := eng.Skyline(context.Background(), ds)
	if err != nil {
		t.Fatal(err)
	}
	pred, err := predictPruning("correlated", ds.Len(), rep.Groups, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	measured := float64(rep.Filtered) + float64(ds.Len()-int(rep.Filtered)-rep.Candidates)
	// Within a factor of 1.5 of the model (the model says nearly all
	// points get pruned before or during candidate computation).
	if measured < pred.PrunedPoints*2/3 || measured > pred.PrunedPoints*1.5 {
		t.Errorf("measured pruning %v vs model %v", measured, pred.PrunedPoints)
	}
}

func TestPredictZMergeCost(t *testing.T) {
	ind, err := predictZMergeCost("independent", 10000, 32, 5, 16)
	if err != nil || ind.Operations <= 0 {
		t.Fatalf("independent: %+v %v", ind, err)
	}
	cor, err := predictZMergeCost("correlated", 10000, 32, 5, 16)
	if err != nil {
		t.Fatal(err)
	}
	if cor.Operations >= ind.Operations {
		t.Errorf("correlated cost %v should be far below independent %v",
			cor.Operations, ind.Operations)
	}
	if _, err := predictZMergeCost("weird", 1, 1, 1, 1); err == nil {
		t.Error("unknown distribution accepted")
	}
	// Tiny inputs do not produce negative/zero logs.
	small, _ := predictZMergeCost("independent", 1, 1, 1, 0)
	if small.Operations <= 0 {
		t.Errorf("small input cost %v", small.Operations)
	}
}
