package grouping

import (
	"testing"

	"zskyline/internal/gen"
	"zskyline/internal/metrics"
	"zskyline/internal/partition"
	"zskyline/internal/zbtree"
	"zskyline/internal/zorder"
)

func learn(t *testing.T, dist gen.Distribution, n, d, parts int) (*zorder.Encoder, *partition.ZCurve) {
	t.Helper()
	ds := gen.Synthetic(dist, n, d, 7)
	enc, err := zorder.NewUnitEncoder(d, 10)
	if err != nil {
		t.Fatal(err)
	}
	z, err := partition.NewZCurve(enc, partition.EncodeSample(enc, ds.Points, zbtree.ZSearch(enc, 0, ds.Points, nil)), parts)
	if err != nil {
		t.Fatal(err)
	}
	return enc, z
}

func TestHeuristicValidation(t *testing.T) {
	_, z := learn(t, gen.Independent, 1000, 3, 8)
	if _, err := Heuristic(z.Infos(), 0); err == nil {
		t.Error("zero groups should fail")
	}
	if _, err := Heuristic(nil, 4); err == nil {
		t.Error("no partitions should fail")
	}
}

func TestHeuristicCoversAllPartitions(t *testing.T) {
	_, z := learn(t, gen.AntiCorrelated, 3000, 4, 32)
	pg, err := Heuristic(z.Infos(), 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(pg.Assign) != z.N() {
		t.Fatalf("assigned %d of %d partitions", len(pg.Assign), z.N())
	}
	for pid, g := range pg.Assign {
		if g < 0 || g >= pg.Groups {
			t.Fatalf("partition %d in out-of-range group %d", pid, g)
		}
	}
	if pg.Groups < 1 {
		t.Fatalf("groups = %d", pg.Groups)
	}
}

func TestHeuristicBalancesSkyline(t *testing.T) {
	_, z := learn(t, gen.AntiCorrelated, 5000, 4, 64)
	m := 8
	// Redistribute first, as ZHG prescribes.
	totalSky := 0
	for _, in := range z.Infos() {
		totalSky += in.SkyCount
	}
	rz := z.Redistribute(totalSky / m)
	pg, err := Heuristic(rz.Infos(), m)
	if err != nil {
		t.Fatal(err)
	}
	_, sky := GroupLoads(rz.Infos(), pg)
	bal := metrics.NewBalance(sky)
	// Grouped skyline shares should be far tighter than the raw
	// per-partition spread.
	raw := make([]int, len(rz.Infos()))
	for i, in := range rz.Infos() {
		raw[i] = in.SkyCount
	}
	rawBal := metrics.NewBalance(raw)
	if bal.Imbalance >= rawBal.Imbalance && rawBal.Imbalance > 1.05 {
		t.Errorf("grouping did not improve skyline balance: %.2f vs raw %.2f",
			bal.Imbalance, rawBal.Imbalance)
	}
}

func TestDominanceValidation(t *testing.T) {
	enc, z := learn(t, gen.Independent, 1000, 3, 8)
	if _, err := Dominance(enc, z.Infos(), 0); err == nil {
		t.Error("zero groups should fail")
	}
	if _, err := Dominance(enc, nil, 4); err == nil {
		t.Error("no partitions should fail")
	}
}

func TestDominanceGroupsEverythingOnce(t *testing.T) {
	enc, z := learn(t, gen.Independent, 4000, 5, 48)
	pg, err := Dominance(enc, z.Infos(), 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(pg.Assign)+len(pg.Pruned) != z.N() {
		t.Fatalf("assigned %d + pruned %d != %d partitions",
			len(pg.Assign), len(pg.Pruned), z.N())
	}
	seen := map[int]bool{}
	for pid := range pg.Assign {
		if seen[pid] {
			t.Fatalf("partition %d assigned twice", pid)
		}
		seen[pid] = true
	}
	for _, pid := range pg.Pruned {
		if _, ok := pg.Assign[pid]; ok {
			t.Fatalf("pruned partition %d also assigned", pid)
		}
	}
}

func TestDominancePrunesOnCorrelatedData(t *testing.T) {
	// Correlated data along the diagonal: early Z-partitions dominate
	// later ones, so pruning should fire.
	enc, z := learn(t, gen.Correlated, 5000, 4, 32)
	pg, err := Dominance(enc, z.Infos(), 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(pg.Pruned) == 0 {
		t.Error("expected dominated partitions to be pruned on correlated data")
	}
}

// Pruning must be sound: a pruned partition's interval region really is
// dominated by some other partition's extent.
func TestDominancePruningSound(t *testing.T) {
	enc, z := learn(t, gen.Correlated, 4000, 3, 32)
	pg, _ := Dominance(enc, z.Infos(), 8)
	infos := z.Infos()
	for _, pid := range pg.Pruned {
		found := false
		for _, other := range infos {
			if other.ID == pid || other.Count == 0 {
				continue
			}
			if zorder.RegionDominatesRegion(other.Extent, infos[pid].Interval) {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("partition %d pruned without a dominating witness", pid)
		}
	}
}

func TestDominanceBalancesLoads(t *testing.T) {
	enc, z := learn(t, gen.AntiCorrelated, 6000, 4, 64)
	m := 8
	pg, err := Dominance(enc, z.Infos(), m)
	if err != nil {
		t.Fatal(err)
	}
	points, sky := GroupLoads(z.Infos(), pg)
	pb := metrics.NewBalance(points)
	sb := metrics.NewBalance(sky)
	// The greedy respects the tcons/scons ceilings, so no group should
	// be wildly above average (ceilings are ceil(avg), overshoot only
	// from single oversized seed partitions).
	if pb.Imbalance > 2.0 {
		t.Errorf("point imbalance %.2f across groups: %v", pb.Imbalance, points)
	}
	if sb.Imbalance > 2.5 {
		t.Errorf("skyline imbalance %.2f across groups: %v", sb.Imbalance, sky)
	}
}

// The defining ZDG property: grouped partitions have higher intra-group
// dominance volume than a random/identity grouping of the same size.
func TestDominanceMaximizesIntraGroupVolume(t *testing.T) {
	enc, z := learn(t, gen.Independent, 6000, 3, 32)
	m := 4
	pg, err := Dominance(enc, z.Infos(), m)
	if err != nil {
		t.Fatal(err)
	}
	infos := z.Infos()
	intra := func(assign map[int]int) float64 {
		total := 0.0
		for i := range infos {
			for j := i + 1; j < len(infos); j++ {
				gi, ok1 := assign[infos[i].ID]
				gj, ok2 := assign[infos[j].ID]
				if ok1 && ok2 && gi == gj {
					total += enc.DominanceVolume(infos[i].Extent, infos[j].Extent)
				}
			}
		}
		return total
	}
	// Round-robin grouping with the same group count as the baseline.
	rr := map[int]int{}
	for i, in := range infos {
		rr[in.ID] = i % pg.Groups
	}
	if got, base := intra(pg.Assign), intra(rr); got < base {
		t.Errorf("ZDG intra-group volume %.4f below round-robin %.4f", got, base)
	}
}

func TestIdentity(t *testing.T) {
	_, z := learn(t, gen.Independent, 1000, 3, 8)
	pg := Identity(z.Infos())
	if pg.Groups != z.N() || len(pg.Assign) != z.N() {
		t.Fatalf("identity: groups=%d assigned=%d", pg.Groups, len(pg.Assign))
	}
	for pid, g := range pg.Assign {
		if _, ok := pg.GroupOf(pid); !ok {
			t.Fatal("identity pruned a partition")
		}
		if g < 0 || g >= pg.Groups {
			t.Fatalf("bad group %d", g)
		}
	}
}

func TestPGMapString(t *testing.T) {
	pg := &PGMap{Assign: map[int]int{0: 0}, Groups: 1, Pruned: []int{3}}
	if pg.String() == "" {
		t.Error("empty String()")
	}
	if _, ok := pg.GroupOf(3); ok {
		t.Error("pruned partition resolved")
	}
}
