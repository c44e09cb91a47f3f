package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"slices"
	"testing"

	"zskyline/internal/gen"
	"zskyline/internal/point"
	"zskyline/internal/subspace"
)

// bruteQueryRows is queryRows' oracle: every row whose projection onto
// cols no row strictly dominates, ascending.
func bruteQueryRows(data point.Block, cols []subspace.Column) []int {
	proj := func(i int) point.Point {
		p := make(point.Point, len(cols))
		for k, c := range cols {
			p[k] = data.Row(i)[c.Dim]
			if c.Negate {
				p[k] = -p[k]
			}
		}
		return p
	}
	var out []int
	for i := 0; i < data.Len(); i++ {
		dominated := false
		for j := 0; j < data.Len() && !dominated; j++ {
			dominated = point.Dominates(proj(j), proj(i))
		}
		if !dominated {
			out = append(out, i)
		}
	}
	return out
}

// TestQueryRowsExact checks random shapes of 1–6 columns, min and max
// mixed, over rows that repeat whole and rows that agree only on some
// columns: the answer is the brute-force index list, every duplicate
// included.
func TestQueryRowsExact(t *testing.T) {
	const d = 6
	rng := rand.New(rand.NewSource(41))
	for iter := 0; iter < 60; iter++ {
		n := 1 + rng.Intn(150)
		data := point.Block{Dims: d, Data: make([]float64, n*d)}
		for i := 0; i < n; i++ {
			row := data.Row(i)
			if i > 0 && rng.Intn(5) == 0 { // a whole-row repeat
				copy(row, data.Row(rng.Intn(i)))
				continue
			}
			for k := range row {
				row[k] = float64(rng.Intn(5)) / 4 // few values: partial ties
			}
		}
		k := 1 + rng.Intn(d)
		var cols []subspace.Column
		for _, idx := range rng.Perm(d)[:k] {
			cols = append(cols, subspace.Column{Dim: idx, Negate: rng.Intn(2) == 0})
		}
		got, want := queryRows(data, cols), bruteQueryRows(data, cols)
		if !slices.Equal(got, want) {
			t.Fatalf("iter %d cols %v over %d rows: queryRows %v, brute force %v", iter, cols, n, got, want)
		}
	}
}

// TestQueryRowsFloatTies: a plain float-sum sort puts the dominated row
// 0 first (equal sums, or a NaN sum); only row 1 may be returned, and a
// max column flips the answer.
func TestQueryRowsFloatTies(t *testing.T) {
	inf := math.Inf(1)
	for _, pts := range [][]point.Point{
		{{1e16, 1}, {1e16, 0}},
		{{0.1, 0.2, 0.30000000000000004}, {0.1, 0.2, 0.3}},
		{{-inf, inf}, {-inf, 5}},
	} {
		d := len(pts[0])
		data := point.BlockOf(d, pts)
		var cols []subspace.Column
		for k := 0; k < d; k++ {
			cols = append(cols, subspace.Column{Dim: k})
		}
		if got := queryRows(data, cols); !slices.Equal(got, []int{1}) {
			t.Errorf("%v: queryRows = %v, want [1]", pts, got)
		}
		cols[d-1].Negate = true
		if got, want := queryRows(data, cols), bruteQueryRows(data, cols); !slices.Equal(got, want) {
			t.Errorf("%v with the last column max: queryRows = %v, want %v", pts, got, want)
		}
	}
}

// TestQueryFloatTieHTTP sends the sum-tie pair through POST
// /datasets/{name}/query.
func TestQueryFloatTieHTTP(t *testing.T) {
	_, ts := newTestService(t, Config{Bits: 10})
	mustCreate(t, ts.URL, DatasetSpec{Name: "ties", Attrs: []string{"x", "y"}})
	mustIngest(t, ts.URL, "ties", [][]float64{{1e16, 1}, {1e16, 0}, {1e16, 0}})
	for _, c := range []struct {
		ydir string
		want []int
	}{{"min", []int{1, 2}}, {"max", []int{0}}} {
		body, _ := json.Marshal(map[string]any{"prefer": []map[string]string{
			{"attr": "x", "dir": "min"}, {"attr": "y", "dir": c.ydir},
		}})
		resp, err := http.Post(ts.URL+"/datasets/ties/query", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var reply struct {
			Rows []int `json:"rows"`
		}
		err = json.NewDecoder(resp.Body).Decode(&reply)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("y:%s: status %d, %v", c.ydir, resp.StatusCode, err)
		}
		if !slices.Equal(reply.Rows, c.want) {
			t.Errorf("y:%s: rows %v, want %v", c.ydir, reply.Rows, c.want)
		}
	}
}

var queryRowsSink []int

// BenchmarkQueryRows is one uncached /query solve at serve-churn's
// dataset size: 15,000 anti-correlated rows of 6 columns, preferring
// the first k.
func BenchmarkQueryRows(b *testing.B) {
	const n, d = 15000, 6
	data := point.BlockOf(d, gen.Synthetic(gen.AntiCorrelated, n, d, 4242).Points)
	for k := 2; k <= 5; k++ {
		cols := make([]subspace.Column, k)
		for i := range cols {
			cols[i] = subspace.Column{Dim: i}
		}
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				queryRowsSink = queryRows(data, cols)
			}
		})
	}
}
