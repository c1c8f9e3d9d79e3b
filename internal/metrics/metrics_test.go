package metrics

import (
	"math"
	"sync"
	"testing"
	"time"
)

func TestRecorderSummary(t *testing.T) {
	var r Recorder
	for i := int64(1); i <= 100; i++ {
		r.Record(i * 1000)
	}
	s := r.Snapshot()
	if s.Count != 100 {
		t.Errorf("Count = %d, want 100", s.Count)
	}
	if s.MeanNS != 50_500 {
		t.Errorf("Mean = %v, want 50500", s.MeanNS)
	}
	if s.P50NS != 50_000 {
		t.Errorf("P50 = %d, want 50000", s.P50NS)
	}
	if s.P90NS != 90_000 {
		t.Errorf("P90 = %d, want 90000", s.P90NS)
	}
	if s.P99NS != 99_000 {
		t.Errorf("P99 = %d, want 99000", s.P99NS)
	}
	if s.MaxNS != 100_000 {
		t.Errorf("Max = %d, want 100000", s.MaxNS)
	}
	if s.String() == "" {
		t.Error("String empty")
	}
	r.Reset()
	if s := r.Snapshot(); s.Count != 0 || s.MaxNS != 0 {
		t.Errorf("after Reset: %+v", s)
	}
}

func TestRecorderEmpty(t *testing.T) {
	var r Recorder
	s := r.Snapshot()
	if s.Count != 0 || s.MeanNS != 0 || s.P99NS != 0 {
		t.Errorf("empty summary = %+v", s)
	}
}

func TestRecorderSingleSample(t *testing.T) {
	var r Recorder
	r.Record(42)
	s := r.Snapshot()
	if s.P50NS != 42 || s.P99NS != 42 || s.MaxNS != 42 {
		t.Errorf("single-sample summary = %+v", s)
	}
}

func TestRecorderConcurrent(t *testing.T) {
	var r Recorder
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Record(int64(i))
			}
		}()
	}
	wg.Wait()
	if s := r.Snapshot(); s.Count != 8000 {
		t.Errorf("Count = %d, want 8000", s.Count)
	}
}

// TestRecorderWideAndChunked checks the compact storage keeps every
// sample exactly: values outside the uint32 range, counts spanning
// several chunks, and a refill after Reset.
func TestRecorderWideAndChunked(t *testing.T) {
	var r Recorder
	for round := 0; round < 2; round++ {
		r.Reset()
		n := 3*recorderChunk + 17
		for i := 0; i < n; i++ {
			r.Record(int64(i))
		}
		r.Record(-5)
		r.Record(math.MaxUint32 + 1)
		r.Record(1 << 40)
		s := r.Snapshot()
		if s.Count != n+3 {
			t.Fatalf("round %d: Count = %d, want %d", round, s.Count, n+3)
		}
		wantMean := (float64(n)*float64(n-1)/2 - 5 + math.MaxUint32 + 1 + (1 << 40)) / float64(n+3)
		if s.MeanNS != wantMean || s.MaxNS != 1<<40 {
			t.Errorf("round %d: mean %v max %d, want %v and %d", round, s.MeanNS, s.MaxNS, wantMean, int64(1<<40))
		}
		// Nearest rank 50% of n+3 sorted samples, -5 first.
		if want := int64((n+3)/2 - 2); s.P50NS != want {
			t.Errorf("round %d: P50 = %d, want %d", round, s.P50NS, want)
		}
	}
	if len(r.chunks) != 4 {
		t.Errorf("%d chunks after refilling, want the 4 first allocated", len(r.chunks))
	}
}

func TestIntHist(t *testing.T) {
	h := NewIntHist(5)
	for v := 0; v <= 5; v++ {
		for i := 0; i <= v; i++ {
			h.Add(v) // value v recorded v+1 times
		}
	}
	if h.Count() != 21 {
		t.Errorf("Count = %d, want 21", h.Count())
	}
	if got := h.Bucket(3); got != 4 {
		t.Errorf("Bucket(3) = %d, want 4", got)
	}
	wantMean := float64(0*1+1*2+2*3+3*4+4*5+5*6) / 21
	if math.Abs(h.Mean()-wantMean) > 1e-9 {
		t.Errorf("Mean = %v, want %v", h.Mean(), wantMean)
	}
	cdf := h.CDF()
	if len(cdf) != 6 {
		t.Fatalf("CDF len = %d", len(cdf))
	}
	if cdf[5] != 1.0 {
		t.Errorf("CDF[5] = %v, want 1", cdf[5])
	}
	for i := 1; i < len(cdf); i++ {
		if cdf[i] < cdf[i-1] {
			t.Error("CDF not monotone")
		}
	}
	h.Reset()
	if h.Count() != 0 || h.Mean() != 0 {
		t.Error("Reset failed")
	}
}

func TestIntHistOverflow(t *testing.T) {
	h := NewIntHist(3)
	h.Add(10)
	h.Add(1)
	if h.Count() != 2 {
		t.Errorf("Count = %d", h.Count())
	}
	cdf := h.CDF()
	if cdf[3] != 0.5 {
		t.Errorf("CDF[3] = %v, want 0.5 (overflow uncounted)", cdf[3])
	}
	if h.Mean() != 5.5 {
		t.Errorf("Mean = %v, want 5.5 (overflow contributes)", h.Mean())
	}
	if h.Bucket(10) != 0 {
		t.Error("Bucket(10) should be 0")
	}
}

func TestIntHistEmptyCDF(t *testing.T) {
	h := NewIntHist(2)
	cdf := h.CDF()
	for _, v := range cdf {
		if v != 0 {
			t.Errorf("empty CDF = %v", cdf)
		}
	}
}

func TestRates(t *testing.T) {
	if got := BytesPerSecond(4096, int64(time.Millisecond)); got != 4096_000 {
		t.Errorf("BytesPerSecond = %v, want 4096000", got)
	}
	if got := PerSecond(500, int64(time.Second)); got != 500 {
		t.Errorf("PerSecond = %v, want 500", got)
	}
	if BytesPerSecond(1, 0) != 0 || PerSecond(1, -5) != 0 {
		t.Error("non-positive elapsed should yield 0")
	}
	if got := Utilization(1, 4); got != 0.25 {
		t.Errorf("Utilization = %v, want 0.25", got)
	}
	if Utilization(1, 0) != 0 {
		t.Error("Utilization with zero capacity should be 0")
	}
}
