package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"maxembed/internal/embedding"
	"maxembed/internal/serving"
	"maxembed/internal/ssd"
)

// BenchmarkHandlerLookup measures the full isolated handler path — decode,
// serve, response build (pooled arena), JSON encode — the per-request cost
// floor of the HTTP layer. Run with -benchmem to watch AllocsPerOp: the
// pooled response arena keeps steady-state allocations independent of key
// count (one arena reuse + map + encoder scratch, not one slice per key).
func BenchmarkHandlerLookup(b *testing.B) {
	s := newTestStack(b, 0.2, nil)
	h := New(s.eng, s.dev, WithoutCoalescing())
	body, err := json.Marshal(LookupRequest{Keys: s.tr.Queries[0]})
	if err != nil {
		b.Fatal(err)
	}
	payload := string(body)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest(http.MethodPost, "/v1/lookup", strings.NewReader(payload))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d", rec.Code)
		}
	}
}

// benchServerThroughput drives concurrent clients against the handler and
// reports device reads per request alongside the usual ns/op — the pair of
// BenchmarkServerLookup{Isolated,Coalesced} runs compares how much SSD work
// each serving mode spends at the same offered load.
func benchServerThroughput(b *testing.B, opts ...Option) {
	s := newTestStack(b, 0.4, func(c *serving.Config) { c.CacheEntries = 0 })
	h := New(s.eng, s.dev, opts...)
	b.Cleanup(h.Close)
	payloads := make([]string, 64)
	for i := range payloads {
		body, err := json.Marshal(LookupRequest{Keys: s.tr.Queries[i%16]})
		if err != nil {
			b.Fatal(err)
		}
		payloads[i] = string(body)
	}
	var next atomic.Int64
	b.SetParallelism(8)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			i := next.Add(1)
			req := httptest.NewRequest(http.MethodPost, "/v1/lookup",
				strings.NewReader(payloads[int(i)%len(payloads)]))
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				b.Fatalf("status %d", rec.Code)
			}
		}
	})
	b.StopTimer()
	if n := next.Load(); n > 0 {
		b.ReportMetric(float64(s.dev.Stats().Reads)/float64(n), "reads/req")
	}
}

func BenchmarkServerLookupIsolated(b *testing.B) {
	benchServerThroughput(b, WithoutCoalescing())
}

func BenchmarkServerLookupCoalesced(b *testing.B) {
	benchServerThroughput(b, WithCoalescing(8, 100*time.Microsecond))
}

// TestHandlerLookupSteadyStateAllocs guards the hot-path allocation budget
// of the isolated lookup handler: after warm-up, repeated identical lookups
// must stay within a fixed allocation budget regardless of how many keys the
// response carries (the response vectors live in one pooled arena, and the
// body is encoded by appending into a pooled buffer). The budget is the
// measured count plus a small margin, so a regression to per-key or
// per-element allocation fails it. On a 4-shard array the admission
// check also judges per-shard health, which must add no allocation.
func TestHandlerLookupSteadyStateAllocs(t *testing.T) {
	cases := []struct {
		name   string
		shards int
		allocs float64
	}{{name: "device", shards: 1}, {name: "array4", shards: 4}}
	for i := range cases {
		tc := &cases[i]
		t.Run(tc.name, func(t *testing.T) {
			s := newTestStack(t, 0.2, func(c *serving.Config) {
				if tc.shards > 1 {
					arr, err := ssd.NewArray(ssd.P5800X, tc.shards)
					if err != nil {
						t.Fatal(err)
					}
					c.Device, c.Backend = nil, arr
				}
			})
			h := New(s.eng, s.eng.Backend(), WithoutCoalescing())
			body, err := json.Marshal(LookupRequest{Keys: s.tr.Queries[0]})
			if err != nil {
				t.Fatal(err)
			}
			payload := string(body)
			post := func() {
				req := httptest.NewRequest(http.MethodPost, "/v1/lookup", strings.NewReader(payload))
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					t.Fatalf("status %d", rec.Code)
				}
			}
			for i := 0; i < 50; i++ {
				post()
			}
			keys := len(s.tr.Queries[0])
			allocs := testing.AllocsPerRun(200, post)
			tc.allocs = allocs
			t.Logf("handler allocs/op: %.1f for %d keys", allocs, keys)
			// Measured: 35 (34–35 across 4–8-key queries) on both backends;
			// 48–52 under -race, where sync.Pool drops a share of Puts.
			budget := 40.0
			if raceEnabled {
				budget = 60
			}
			if allocs > budget {
				t.Errorf("handler allocates %.1f/op for %d keys, budget %.0f", allocs, keys, budget)
			}
		})
	}
	if dev, arr := cases[0].allocs, cases[1].allocs; !raceEnabled && arr > dev {
		t.Errorf("4-shard array lookup allocates %.1f/op, single device %.1f: the health verdict allocates", arr, dev)
	}
}

// synthFloats returns n element values drawn the way the embedding
// synthesizer draws them (k/2^23 for k ∈ [-2^23, 2^23)).
func synthFloats(tb testing.TB, n int) []float32 {
	tb.Helper()
	syn, err := embedding.NewSynthesizer(64, 1)
	if err != nil {
		tb.Fatal(err)
	}
	vals := make([]float32, 0, n)
	for k := 0; len(vals) < n; k++ {
		vals = syn.Vector(embedding.Key(k), vals)
	}
	return vals[:n]
}

// BenchmarkAppendFloat32 prices one element of a JSON response: the
// Schubfach formatter beside the strconv call it replaces, on synthesizer
// values. One op is one float.
func BenchmarkAppendFloat32(b *testing.B) {
	vals := synthFloats(b, 4096)
	for _, bc := range []struct {
		name string
		fn   func([]byte, float32) []byte
	}{
		{"schubfach", appendFloat32},
		{"strconv", func(dst []byte, v float32) []byte {
			return strconv.AppendFloat(dst, float64(v), 'g', -1, 32)
		}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			buf := make([]byte, 0, 64)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				buf = bc.fn(buf[:0], vals[i&(len(vals)-1)])
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/float")
		})
	}
}

// BenchmarkEncodeJSON encodes one Criteo-shaped response (26 keys × dim
// 64, value-backed vectors) into a warm pooled body buffer, as the
// lookup handler does. Steady state allocates nothing.
func BenchmarkEncodeJSON(b *testing.B) {
	const keys, dim = 26, 64
	vals := synthFloats(b, keys*dim)
	l := &respLease{stats: LookupStats{DistinctKeys: keys, PagesRead: 9, PageShare: 0.25, BatchSize: 1}}
	for i := 0; i < keys; i++ {
		l.keys = append(l.keys, uint32(1000+i))
		l.vecs = append(l.vecs, vals[i*dim:(i+1)*dim])
	}
	bp := respBufPool.Get().(*[]byte)
	*bp = l.encodeJSON((*bp)[:0])
	b.SetBytes(int64(len(*bp)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		*bp = l.encodeJSON((*bp)[:0])
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*keys*dim), "ns/float")
	respBufPool.Put(bp)
}
