// Package metrics provides the measurement primitives the evaluation
// harness reports: latency percentiles, integer histograms (for Fig 9's
// valid-embeddings-per-read CDF), and effective-bandwidth arithmetic.
package metrics

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing event counter, safe for concurrent
// use. The zero value is ready.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Load returns the current count.
func (c *Counter) Load() int64 { return c.v.Load() }

// Reset zeroes the counter.
func (c *Counter) Reset() { c.v.Store(0) }

// RateWindow tracks a failure rate over a rolling window of the last n
// observation batches — e.g. (failed reads, total reads) per served query —
// so a burst of old errors ages out instead of poisoning a long-lived
// process's health forever. It is safe for concurrent use.
type RateWindow struct {
	mu      sync.Mutex
	fail    []int64
	total   []int64
	idx     int
	filled  int
	sumFail int64
	sumTot  int64
}

// NewRateWindow returns a window over the last n observations (n clamped
// to at least 1).
func NewRateWindow(n int) *RateWindow {
	if n < 1 {
		n = 1
	}
	return &RateWindow{fail: make([]int64, n), total: make([]int64, n)}
}

// Observe records one batch of total events, fail of which failed.
func (w *RateWindow) Observe(fail, total int64) {
	w.mu.Lock()
	w.sumFail += fail - w.fail[w.idx]
	w.sumTot += total - w.total[w.idx]
	w.fail[w.idx] = fail
	w.total[w.idx] = total
	w.idx = (w.idx + 1) % len(w.fail)
	if w.filled < len(w.fail) {
		w.filled++
	}
	w.mu.Unlock()
}

// Rate returns the failure fraction over the window and the number of
// events it covers. An empty window reports (0, 0).
func (w *RateWindow) Rate() (rate float64, events int64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.sumTot <= 0 {
		return 0, 0
	}
	return float64(w.sumFail) / float64(w.sumTot), w.sumTot
}

// Reset clears the window.
func (w *RateWindow) Reset() {
	w.mu.Lock()
	for i := range w.fail {
		w.fail[i], w.total[i] = 0, 0
	}
	w.idx, w.filled, w.sumFail, w.sumTot = 0, 0, 0, 0
	w.mu.Unlock()
}

// Recorder collects latency samples (virtual nanoseconds) and summarizes
// them exactly. It is safe for concurrent use.
//
// A serving engine records one sample per lookup for as long as it runs,
// so the storage is compact: samples in [0, 2^32) ns (about 4.3 s) take 4
// bytes each in fixed-size chunks, which never regrow or copy, and the
// rare sample outside that range goes to a wide overflow list. Reset
// keeps the chunks for reuse.
type Recorder struct {
	mu     sync.Mutex
	chunks []*[recorderChunk]uint32
	n      int     // samples stored in chunks
	wide   []int64 // samples outside the uint32 range
}

// recorderChunk is the number of samples per 32 KiB chunk.
const recorderChunk = 8192

// Record adds one sample.
func (r *Recorder) Record(ns int64) {
	r.mu.Lock()
	if ns < 0 || ns > math.MaxUint32 {
		r.wide = append(r.wide, ns)
	} else {
		c := r.n / recorderChunk
		if c == len(r.chunks) {
			r.chunks = append(r.chunks, new([recorderChunk]uint32))
		}
		r.chunks[c][r.n%recorderChunk] = uint32(ns)
		r.n++
	}
	r.mu.Unlock()
}

// LatencySummary reports distribution statistics over recorded samples.
type LatencySummary struct {
	Count  int
	MeanNS float64
	P50NS  int64
	P90NS  int64
	P99NS  int64
	MaxNS  int64
}

// String renders the summary compactly in microseconds.
func (s LatencySummary) String() string {
	return fmt.Sprintf("n=%d mean=%.1fµs p50=%.1fµs p90=%.1fµs p99=%.1fµs max=%.1fµs",
		s.Count, s.MeanNS/1e3, float64(s.P50NS)/1e3, float64(s.P90NS)/1e3,
		float64(s.P99NS)/1e3, float64(s.MaxNS)/1e3)
}

// Count returns the number of samples recorded so far.
func (r *Recorder) Count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.n + len(r.wide)
}

// Snapshot summarizes all samples recorded so far.
func (r *Recorder) Snapshot() LatencySummary {
	r.mu.Lock()
	samples := make([]int64, 0, r.n+len(r.wide))
	for i := 0; i < r.n; i++ {
		samples = append(samples, int64(r.chunks[i/recorderChunk][i%recorderChunk]))
	}
	samples = append(samples, r.wide...)
	r.mu.Unlock()
	var s LatencySummary
	s.Count = len(samples)
	if s.Count == 0 {
		return s
	}
	slices.Sort(samples)
	var sum int64
	for _, v := range samples {
		sum += v
	}
	s.MeanNS = float64(sum) / float64(s.Count)
	s.P50NS = percentile(samples, 0.50)
	s.P90NS = percentile(samples, 0.90)
	s.P99NS = percentile(samples, 0.99)
	s.MaxNS = samples[len(samples)-1]
	return s
}

// Reset discards all samples.
func (r *Recorder) Reset() {
	r.mu.Lock()
	r.n = 0
	r.wide = r.wide[:0]
	r.mu.Unlock()
}

// percentile returns the nearest-rank percentile of sorted samples.
func percentile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(q*float64(len(sorted))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// IntHist is a histogram over small non-negative integers, e.g. the number
// of valid embeddings obtained per page read (bounded by page capacity).
// It is safe for concurrent use.
type IntHist struct {
	mu       sync.Mutex
	counts   []int64
	overflow int64 // values > len(counts)-1
	total    int64
	sum      int64
}

// NewIntHist returns a histogram for values in [0, max]; larger values are
// clamped into an overflow bucket but still contribute to Mean.
func NewIntHist(max int) *IntHist {
	if max < 0 {
		max = 0
	}
	return &IntHist{counts: make([]int64, max+1)}
}

// Add records one value.
func (h *IntHist) Add(v int) {
	h.mu.Lock()
	if v >= 0 && v < len(h.counts) {
		h.counts[v]++
	} else {
		h.overflow++
	}
	h.total++
	h.sum += int64(v)
	h.mu.Unlock()
}

// Count returns the number of recorded values.
func (h *IntHist) Count() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.total
}

// Mean returns the mean recorded value, or 0 if empty.
func (h *IntHist) Mean() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.total == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.total)
}

// IntHistSnapshot is a copy of an IntHist taken under one lock, so its
// counts and overflow sum to Total.
type IntHistSnapshot struct {
	Counts   []int64 // Counts[v] is how many recorded values equalled v, v in [0, max]
	Overflow int64   // values above max
	Total    int64
	Sum      int64
}

// Mean returns the mean recorded value, or 0 if empty.
func (s IntHistSnapshot) Mean() float64 {
	if s.Total == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Total)
}

// Snapshot returns a consistent copy of the histogram.
func (h *IntHist) Snapshot() IntHistSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	return IntHistSnapshot{
		Counts:   append([]int64(nil), h.counts...),
		Overflow: h.overflow,
		Total:    h.total,
		Sum:      h.sum,
	}
}

// CDF returns, for each value v in [0, max], the fraction of recorded
// values ≤ v. Overflow values only register at the final bucket implicitly
// (the CDF then tops out below 1).
func (h *IntHist) CDF() []float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]float64, len(h.counts))
	if h.total == 0 {
		return out
	}
	var cum int64
	for v, c := range h.counts {
		cum += c
		out[v] = float64(cum) / float64(h.total)
	}
	return out
}

// Reset clears the histogram.
func (h *IntHist) Reset() {
	h.mu.Lock()
	for i := range h.counts {
		h.counts[i] = 0
	}
	h.overflow, h.total, h.sum = 0, 0, 0
	h.mu.Unlock()
}

// BytesPerSecond converts (bytes, elapsed virtual ns) to a rate. Returns 0
// for non-positive elapsed time.
func BytesPerSecond(bytes int64, elapsedNS int64) float64 {
	if elapsedNS <= 0 {
		return 0
	}
	return float64(bytes) / (float64(elapsedNS) / float64(time.Second))
}

// PerSecond converts (count, elapsed virtual ns) to a rate, e.g. queries
// per second. Returns 0 for non-positive elapsed time.
func PerSecond(count int64, elapsedNS int64) float64 {
	if elapsedNS <= 0 {
		return 0
	}
	return float64(count) / (float64(elapsedNS) / float64(time.Second))
}

// Utilization returns achieved/capacity clamped to [0, 1] for sane inputs;
// capacity ≤ 0 yields 0.
func Utilization(achieved, capacity float64) float64 {
	if capacity <= 0 {
		return 0
	}
	return achieved / capacity
}
