package exp

import (
	"context"
	"strconv"
	"strings"
	"testing"
	"time"

	"zskyline/internal/zorder"
)

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"fig3", "fig7a", "fig7b", "fig7c", "fig7d",
		"fig8a", "fig8b", "fig8c", "fig8d",
		"fig4", "fig9a", "fig9b", "fig10", "fig11", "fig12", "fig13",
		"abl-szb", "abl-delta", "abl-bits", "abl-fanout", "abl-workers", "abl-model", "abl-skew", "abl-stragglers", "abl-ooc",
	}
	for _, id := range want {
		if _, ok := Get(id); !ok {
			t.Errorf("experiment %q not registered", id)
		}
	}
	if len(All()) != len(want) {
		t.Errorf("registry has %d experiments, want %d", len(All()), len(want))
	}
	for _, e := range All() {
		if e.Title == "" || e.PaperRef == "" || e.Run == nil {
			t.Errorf("experiment %q underspecified", e.ID)
		}
	}
	if _, ok := Get("nope"); ok {
		t.Error("unknown id resolved")
	}
}

func TestAllSorted(t *testing.T) {
	all := All()
	for i := 1; i < len(all); i++ {
		if all[i-1].ID > all[i].ID {
			t.Fatalf("All() unsorted at %d: %s > %s", i, all[i-1].ID, all[i].ID)
		}
	}
}

func TestTableFormatAndCSV(t *testing.T) {
	tab := &Table{ID: "x", Title: "demo", Columns: []string{"a", "bb"}, Notes: "n"}
	tab.AddRow("1", "2")
	text := tab.Format()
	if !strings.Contains(text, "demo") || !strings.Contains(text, "note: n") {
		t.Errorf("Format missing pieces: %q", text)
	}
	csv := tab.CSV()
	if csv != "a,bb\n1,2\n" {
		t.Errorf("CSV = %q", csv)
	}
}

func TestParamsNormalize(t *testing.T) {
	p := Params{}.normalize()
	if p.Scale != 1 || p.Workers != 8 {
		t.Errorf("normalize = %+v", p)
	}
	if got := (Params{Scale: 0.001}).n(10); got != 100 {
		t.Errorf("n floor = %d, want 100", got)
	}
	if got := (Params{Scale: 2}).n(10); got != 20000 {
		t.Errorf("n = %d, want 20000", got)
	}
}

// Smoke-run every experiment at a tiny scale; tables must be fully
// populated with parseable cells.
func TestAllExperimentsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke runs are not short")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()
	p := Params{Scale: 0.05, Workers: 4, Seed: 1}
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			tab, err := e.Run(ctx, p)
			if err != nil {
				t.Fatal(err)
			}
			if len(tab.Rows) == 0 || len(tab.Columns) < 2 {
				t.Fatalf("table empty: %+v", tab)
			}
			for _, row := range tab.Rows {
				if len(row) != len(tab.Columns) {
					t.Fatalf("row width %d != %d cols", len(row), len(tab.Columns))
				}
				for i, cell := range row {
					if cell == "" {
						t.Fatalf("empty cell in row %v", row)
					}
					// All cells except the leading label columns must be
					// numeric.
					if i >= 1 && e.ID != "fig11" && e.ID != "abl-szb" && e.ID != "abl-model" && e.ID != "abl-ooc" {
						if _, err := strconv.ParseFloat(cell, 64); err != nil {
							t.Fatalf("non-numeric cell %q in %s", cell, e.ID)
						}
					}
				}
			}
			t.Log("\n" + tab.Format())
		})
	}
}

func TestSampleRatioAndBits(t *testing.T) {
	if sampleRatioFor(1000) != 0.05 || sampleRatioFor(100000) != 0.02 || sampleRatioFor(1e6) != 0.01 {
		t.Error("sampleRatioFor thresholds wrong")
	}
	if zorder.DefaultBits(5) != 16 || zorder.DefaultBits(32) != 12 || zorder.DefaultBits(512) != 8 {
		t.Error("zorder.DefaultBits thresholds wrong")
	}
}
