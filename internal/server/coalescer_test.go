package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"maxembed/internal/serving"
)

func getStats(t *testing.T, url string) StatsResponse {
	t.Helper()
	r, err := http.Get(url + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	var sr StatsResponse
	if err := json.NewDecoder(r.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	return sr
}

func TestCoalescerSingleRequestBypass(t *testing.T) {
	s := newTestStack(t, 0.2, nil)
	srv := s.serve(t, WithCoalescing(8, 50*time.Millisecond))
	// Sequential requests are always alone in flight: every one must be
	// dispatched immediately (no 50ms gather stall) as a bypass.
	start := time.Now()
	for i := 0; i < 5; i++ {
		resp, _ := postLookup(t, srv.URL, s.tr.Queries[i])
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("lookup %d: status %d", i, resp.StatusCode)
		}
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("5 sequential lookups took %v — bypass is waiting out the gather window", elapsed)
	}
	sr := getStats(t, srv.URL)
	c := sr.Coalescer
	if !c.Enabled {
		t.Fatal("coalescer not enabled")
	}
	if c.Bypasses != 5 || c.Batches != 5 {
		t.Errorf("bypasses = %d, batches = %d, want 5/5", c.Bypasses, c.Batches)
	}
	if c.Coalesced != 0 {
		t.Errorf("coalesced = %d for sequential traffic", c.Coalesced)
	}
	if c.MeanBatchSize != 1 {
		t.Errorf("mean batch size = %v, want 1", c.MeanBatchSize)
	}
	if c.WaitP99NS != 0 {
		t.Errorf("bypass wait p99 = %dns, want 0", c.WaitP99NS)
	}
}

func TestCoalescerFormsBatchesUnderConcurrency(t *testing.T) {
	// Deterministic batch formation: hold the in-flight count at n before
	// any job is submitted (exactly what n overlapping handlers do), then
	// release all submissions at once. The gather window must stay open and
	// collect the whole batch.
	s := newTestStack(t, 0.2, nil)
	h := New(s.eng, s.dev, WithCoalescing(8, 50*time.Millisecond))
	t.Cleanup(h.Close)
	const n = 8
	h.coal.inflight.Add(n)
	var wg sync.WaitGroup
	start := make(chan struct{})
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer h.coal.inflight.Add(-1)
			<-start
			job := lookupJob{keys: s.tr.Queries[i], done: make(chan lookupOutcome, 1)}
			if !h.coal.submit(job) {
				errs <- fmt.Errorf("request %d shed with an empty queue", i)
				return
			}
			out := <-job.done
			if out.err != nil {
				errs <- fmt.Errorf("request %d: %v", i, out.err)
				return
			}
			if out.status != http.StatusOK {
				errs <- fmt.Errorf("request %d: status %d", i, out.status)
				return
			}
			if out.lease.stats.BatchSize < 2 {
				errs <- fmt.Errorf("request %d served with BatchSize %d, want ≥ 2", i, out.lease.stats.BatchSize)
				return
			}
			out.lease.release()
		}(i)
	}
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	c, _ := h.coal.stats()
	if c.Coalesced != n {
		t.Errorf("coalesced = %d, want all %d requests batched", c.Coalesced, n)
	}
	if c.Batches >= n {
		t.Errorf("batches = %d for %d overlapping requests — nothing coalesced", c.Batches, n)
	}
	if c.MeanBatchSize <= 1 {
		t.Errorf("mean batch size = %v under concurrency", c.MeanBatchSize)
	}
}

func TestCoalescerBackpressure(t *testing.T) {
	s := newTestStack(t, 0.2, nil)
	// Build the handler without starting a coalescer goroutine, then attach
	// one by hand whose queue is already full: submit must shed
	// deterministically (no draining goroutine races the test).
	h := New(s.eng, s.dev, WithoutCoalescing())
	h.coal = newCoalescer(h, 4, time.Millisecond, 1)
	h.coal.queue <- lookupJob{keys: []uint32{1}, done: make(chan lookupOutcome, 1)}

	srv := httptest.NewServer(h)
	defer srv.Close()
	resp, _ := postLookup(t, srv.URL, s.tr.Queries[0])
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("full coalesce queue: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 without Retry-After")
	}
	if shed := h.coal.shed.Load(); shed != 1 {
		t.Errorf("shed counter = %d, want 1", shed)
	}
}

func TestCoalescerCloseFallsBackToIsolated(t *testing.T) {
	s := newTestStack(t, 0.2, nil)
	h := New(s.eng, s.dev, WithCoalescing(8, time.Millisecond))
	srv := httptest.NewServer(h)
	defer srv.Close()
	h.Close()
	// After Close the handler keeps serving, isolated.
	resp, lr := postLookup(t, srv.URL, s.tr.Queries[0])
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-Close lookup: status %d", resp.StatusCode)
	}
	if len(lr.Embeddings) == 0 {
		t.Error("post-Close lookup returned no embeddings")
	}
	if lr.Stats.BatchSize != 1 {
		t.Errorf("post-Close BatchSize = %d, want 1 (isolated)", lr.Stats.BatchSize)
	}
	h.Close() // idempotent
}

func TestCoalescedMatchesIsolatedResults(t *testing.T) {
	s := newTestStack(t, 0.2, nil)
	srv := s.serve(t, WithCoalescing(8, 10*time.Millisecond))
	// Concurrent clients through the coalescer must see exactly the vectors
	// the synthesizer defines — identical to what isolated serving returns.
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var want []float32
			for i := w; i < 80; i += 8 {
				resp, lr := postLookup(t, srv.URL, s.tr.Queries[i])
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("query %d: status %d", i, resp.StatusCode)
					return
				}
				for k, got := range lr.Embeddings {
					want = s.syn.Vector(k, want[:0])
					if len(got) != len(want) {
						errs <- fmt.Errorf("query %d key %d: dim %d, want %d", i, k, len(got), len(want))
						return
					}
					for j := range want {
						if got[j] != want[j] {
							errs <- fmt.Errorf("query %d key %d element %d: %v != %v", i, k, j, got[j], want[j])
							return
						}
					}
				}
				if lr.Stats.BatchSize < 1 {
					errs <- fmt.Errorf("query %d: BatchSize %d", i, lr.Stats.BatchSize)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestCoalescedReadsFewerPagesThanIsolated(t *testing.T) {
	// The point of the whole exercise: at the same offered load, coalesced
	// serving reads fewer pages per key than isolated serving, because the
	// combined pass dedupes keys and shares page reads across requests.
	// Cacheless stacks so every saving is attributable to batching.
	const clients, rounds = 8, 16
	post := func(h *Handler, keys []uint32) int {
		body, err := json.Marshal(LookupRequest{Keys: keys})
		if err != nil {
			t.Fatal(err)
		}
		req := httptest.NewRequest(http.MethodPost, "/v1/lookup", strings.NewReader(string(body)))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec.Code
	}
	run := func(opts ...Option) (reads, coalesced int64) {
		s := newTestStack(t, 0.4, func(c *serving.Config) { c.CacheEntries = 0 })
		h := New(s.eng, s.dev, opts...)
		t.Cleanup(h.Close)
		for round := 0; round < rounds; round++ {
			// All clients fire the same query at the same instant — the
			// overlapping-arrival regime where batching shares reads. The
			// in-flight count is pinned to the round's concurrency for its
			// duration: single-CPU test runners serialize handler
			// goroutines so fast that the natural count rarely exceeds 1,
			// while a loaded multi-core server sees all of them at once.
			var wg sync.WaitGroup
			start := make(chan struct{})
			errs := make(chan error, clients)
			if h.coal != nil {
				h.coal.inflight.Add(clients)
			}
			for w := 0; w < clients; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					<-start
					if code := post(h, s.tr.Queries[round]); code != http.StatusOK {
						errs <- fmt.Errorf("round %d: status %d", round, code)
					}
				}()
			}
			close(start)
			wg.Wait()
			if h.coal != nil {
				h.coal.inflight.Add(-clients)
			}
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
		}
		var c int64
		if h.coal != nil {
			c = h.coal.coalesced.Load()
		}
		return s.dev.Stats().Reads, c
	}
	isolated, _ := run(WithoutCoalescing())
	coalesced, batched := run(WithCoalescing(clients, 20*time.Millisecond))
	if batched == 0 {
		t.Fatalf("%d simultaneous identical requests per round, none coalesced", clients)
	}
	if coalesced >= isolated {
		t.Fatalf("coalesced serving read %d pages, isolated %d — no sharing", coalesced, isolated)
	}
	t.Logf("device reads: coalesced %d vs isolated %d (%.1f%%), %d requests batched",
		coalesced, isolated, 100*float64(coalesced)/float64(isolated), batched)
}

func TestMetricsIncludeCoalescer(t *testing.T) {
	s := newTestStack(t, 0.2, nil)
	srv := s.serve(t)
	for i := 0; i < 3; i++ {
		if resp, _ := postLookup(t, srv.URL, s.tr.Queries[i]); resp.StatusCode != http.StatusOK {
			t.Fatalf("lookup: status %d", resp.StatusCode)
		}
	}
	r, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	body, err := io.ReadAll(r.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, metric := range []string{
		"maxembed_coalesce_batches_total",
		"maxembed_coalesce_bypass_total",
		"maxembed_coalesce_batch_size_bucket",
		"maxembed_coalesce_wait_p99_ns",
	} {
		if !strings.Contains(text, metric) {
			t.Errorf("metrics output missing %q", metric)
		}
	}
}
