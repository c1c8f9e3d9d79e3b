package main

import (
	"math"
	"sort"
	"time"
)

// samples collects durations in microseconds.
type samples []float64

func (s *samples) add(d time.Duration) { *s = append(*s, float64(d.Nanoseconds())/1e3) }

// quantile returns the nearest-rank q-quantile (0 < q ≤ 1), 0 when empty.
func (s samples) quantile(q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	c := append(samples(nil), s...)
	sort.Float64s(c)
	i := int(math.Ceil(q*float64(len(c)))) - 1
	if i < 0 {
		i = 0
	}
	return c[i]
}

// windowQuantile splits s, in arrival order, into equal windows of at
// least minWindow samples (at most maxWindows of them), takes the
// q-quantile of each and returns their median. One stall (a collection,
// a neighbour's burst on the shared host) then moves one window rather
// than the whole run's tail. A window of 1000 samples leaves 10 beyond
// its p99.
func (s samples) windowQuantile(q float64) float64 {
	n := min(maxWindows, len(s)/minWindow)
	if n <= 1 {
		return s.quantile(q)
	}
	w := len(s) / n
	qs := make(samples, 0, n)
	for i := 0; i < n; i++ {
		qs = append(qs, s[i*w:(i+1)*w].quantile(q))
	}
	return qs.quantile(0.5)
}

const (
	minWindow  = 1000
	maxWindows = 10
)

// windowRate returns the median, over the whole windows of length win
// in [0, total), of completions per second, given completion offsets.
func windowRate(done []time.Duration, total, win time.Duration) float64 {
	n := int(total / win)
	if n < 1 {
		return float64(len(done)) / total.Seconds()
	}
	counts := make([]float64, n)
	for _, d := range done {
		if i := int(d / win); i < n {
			counts[i]++
		}
	}
	for i := range counts {
		counts[i] /= win.Seconds()
	}
	return median(counts)
}

func median(xs []float64) float64 { return samples(xs).quantile(0.5) }

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet maps metric names to values.
type metricSet map[string]metric

func (m metricSet) set(name string, v float64) { m[name] = metric{Value: v, Unit: unitOf(name)} }
