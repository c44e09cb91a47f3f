package main

import (
	"math"
	"sort"
	"time"
)

// series is the per-operation timings of one operation class, in ms.
type series []float64

func (s *series) add(d time.Duration) { *s = append(*s, ms(d)) }

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// quantile returns the q-quantile (0..1) by linear interpolation
// between order statistics, 0 for an empty series.
func (s series) quantile(q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	c := append(series(nil), s...)
	sort.Float64s(c)
	pos := q * float64(len(c)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return c[lo] + (c[hi]-c[lo])*(pos-float64(lo))
}

func (s series) median() float64 { return s.quantile(0.5) }

func (s series) sum() float64 {
	t := 0.0
	for _, v := range s {
		t += v
	}
	return t
}

func (s series) mean() float64 { return s.sum() / float64(len(s)) }

// iqrFrac is the inter-quartile spread as a share of the median — the
// noise figure reported beside every timed metric.
func (s series) iqrFrac() float64 {
	m := s.median()
	if m == 0 {
		return 0
	}
	return (s.quantile(0.75) - s.quantile(0.25)) / m
}

// tailOK reports whether the q-quantile has at least ten samples
// beyond it; a run notes a tail that has fewer.
func (s series) tailOK(q float64) bool {
	return float64(len(s))*(1-q) >= 10
}
