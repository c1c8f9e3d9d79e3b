package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"maxembed/internal/embedding"
	"maxembed/internal/hypergraph"
	"maxembed/internal/placement"
	"maxembed/internal/serving"
	"maxembed/internal/ssd"
	"maxembed/internal/store"
	"maxembed/internal/workload"
)

// fileStack is a serving stack over the real-I/O backend: shard files in a
// temp dir read through the async executor, zero-copy views end to end.
type fileStack struct {
	eng *serving.Engine
	fb  *ssd.FileBackend
	syn *embedding.Synthesizer
	tr  *workload.Trace
}

func newFileStack(t testing.TB, shards int, mutate func(*serving.Config)) *fileStack {
	t.Helper()
	p := workload.Profile{
		Name: "t", Items: 800, Queries: 1500, MeanQueryLen: 8,
		Communities: 60, CommunityAffinity: 0.8, CommunitySpread: 0.5,
		ZipfS: 1.2, PopularityOffset: 0.05, Seed: 3,
	}
	tr, err := workload.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	g, err := hypergraph.FromQueries(tr.NumItems, tr.Queries)
	if err != nil {
		t.Fatal(err)
	}
	lay, err := placement.Build(placement.StrategyMaxEmbed, g, placement.Options{
		Capacity: embedding.PageCapacity(4096, testDim), ReplicationRatio: 0.2, Seed: 1,
		Shards: shards,
	})
	if err != nil {
		t.Fatal(err)
	}
	syn, err := embedding.NewSynthesizer(testDim, 5)
	if err != nil {
		t.Fatal(err)
	}
	sh, err := store.BuildSharded(lay, syn, 4096, shards)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	files := make([]*store.FileStore, shards)
	for i := range files {
		path := filepath.Join(dir, fmt.Sprintf("shard%03d.bin", i))
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sh.Shard(i).WriteTo(f); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		if files[i], _, err = store.OpenFileAuto(path); err != nil {
			t.Fatal(err)
		}
	}
	fb, err := ssd.NewFileBackend(files, ssd.FileBackendConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fb.Close() })
	cfg := serving.Config{Layout: lay, Backend: fb, Store: sh, Pipeline: true}
	if mutate != nil {
		mutate(&cfg)
	}
	eng, err := serving.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &fileStack{eng: eng, fb: fb, syn: syn, tr: tr}
}

func (s *fileStack) serve(t *testing.T, opts ...Option) *httptest.Server {
	t.Helper()
	h := New(s.eng, s.fb, opts...)
	srv := httptest.NewServer(h)
	t.Cleanup(func() {
		srv.Close()
		h.Close()
	})
	return srv
}

// postLookupBinary negotiates the binary encoding and parses the frame.
func postLookupBinary(t *testing.T, url string, keys []uint32) (status int, dim int, got map[uint32][]float32, failed []uint32) {
	t.Helper()
	body, err := json.Marshal(LookupRequest{Keys: keys})
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url+"/v1/lookup", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Accept", "application/octet-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	status = resp.StatusCode
	if status != http.StatusOK && status != http.StatusPartialContent {
		return status, 0, nil, nil
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/octet-stream" {
		t.Fatalf("Content-Type = %q, want application/octet-stream", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) < 16 || string(raw[:4]) != binaryMagic {
		t.Fatalf("binary frame header malformed: % x", raw[:min(len(raw), 16)])
	}
	u32 := func(off int) uint32 { return binary.LittleEndian.Uint32(raw[off:]) }
	dim = int(u32(4))
	count, nfail := int(u32(8)), int(u32(12))
	wantLen := 16 + count*(4+4*dim) + nfail*4
	if len(raw) != wantLen {
		t.Fatalf("binary frame length %d, want %d (dim=%d count=%d nfail=%d)",
			len(raw), wantLen, dim, count, nfail)
	}
	got = make(map[uint32][]float32, count)
	off := 16
	for i := 0; i < count; i++ {
		k := u32(off)
		off += 4
		vec := make([]float32, dim)
		for j := range vec {
			vec[j] = math.Float32frombits(u32(off))
			off += 4
		}
		got[k] = vec
	}
	for i := 0; i < nfail; i++ {
		failed = append(failed, u32(off))
		off += 4
	}
	return status, dim, got, failed
}

// TestLookupJSONOverFileBackend checks the hand-rolled JSON encoder against
// the ground truth through the full zero-copy path: NVMe-style read →
// completion buffer → ref view → response body.
func TestLookupJSONOverFileBackend(t *testing.T) {
	s := newFileStack(t, 2, nil)
	srv := s.serve(t)
	var want []float32
	for i := 0; i < 40; i++ {
		resp, lr := postLookup(t, srv.URL, s.tr.Queries[i])
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("query %d: status %d", i, resp.StatusCode)
		}
		if len(lr.Embeddings) == 0 {
			t.Fatalf("query %d: no embeddings", i)
		}
		for k, got := range lr.Embeddings {
			want = s.syn.Vector(k, want[:0])
			if len(got) != len(want) {
				t.Fatalf("query %d key %d: dim %d want %d", i, k, len(got), len(want))
			}
			for j := range want {
				if got[j] != want[j] {
					t.Fatalf("query %d key %d elem %d: %v want %v", i, k, j, got[j], want[j])
				}
			}
		}
		if lr.Stats.PagesRead == 0 && lr.Stats.CacheHits == 0 {
			t.Fatalf("query %d: no reads and no hits in stats", i)
		}
	}
	if st := s.fb.Stats(); st.Reads == 0 {
		t.Fatal("no backend reads recorded")
	}
}

// TestLookupBinaryEncoding checks the negotiated binary frame: raw
// little-endian payload bytes straight out of the completion buffers.
func TestLookupBinaryEncoding(t *testing.T) {
	s := newFileStack(t, 2, nil)
	srv := s.serve(t)
	var want []float32
	for i := 0; i < 25; i++ {
		status, dim, got, failed := postLookupBinary(t, srv.URL, s.tr.Queries[i])
		if status != http.StatusOK {
			t.Fatalf("query %d: status %d", i, status)
		}
		if dim != testDim {
			t.Fatalf("query %d: dim %d, want %d", i, dim, testDim)
		}
		if len(failed) != 0 {
			t.Fatalf("query %d: failed keys %v", i, failed)
		}
		distinct := map[uint32]bool{}
		for _, k := range s.tr.Queries[i] {
			distinct[k] = true
		}
		if len(got) != len(distinct) {
			t.Fatalf("query %d: %d keys returned, want %d", i, len(got), len(distinct))
		}
		for k, vec := range got {
			want = s.syn.Vector(k, want[:0])
			for j := range want {
				if vec[j] != want[j] {
					t.Fatalf("query %d key %d elem %d: %v want %v", i, k, j, vec[j], want[j])
				}
			}
		}
	}
}

// TestLookupBinaryMatchesJSON cross-checks the two encodings of the same
// query byte-for-value, through the coalesced path as well.
func TestLookupBinaryMatchesJSON(t *testing.T) {
	s := newFileStack(t, 1, nil)
	srv := s.serve(t, WithCoalescing(4, 0))
	for i := 0; i < 10; i++ {
		q := s.tr.Queries[i]
		_, lr := postLookup(t, srv.URL, q)
		_, _, got, _ := postLookupBinary(t, srv.URL, q)
		if len(got) != len(lr.Embeddings) {
			t.Fatalf("query %d: binary %d keys, JSON %d", i, len(got), len(lr.Embeddings))
		}
		for k, jv := range lr.Embeddings {
			bv, ok := got[k]
			if !ok {
				t.Fatalf("query %d: key %d missing from binary response", i, k)
			}
			for j := range jv {
				if jv[j] != bv[j] {
					t.Fatalf("query %d key %d elem %d: JSON %v, binary %v", i, k, j, jv[j], bv[j])
				}
			}
		}
	}
}

// TestHandRolledJSONMatchesEncodingJSON pins the hand-rolled encoder to the
// reflection-based rendering of the same response structs, so the wire
// shape can never drift from the documented LookupResponse. The contract
// is parse-equality: number text differs (see encodeJSON).
func TestHandRolledJSONMatchesEncodingJSON(t *testing.T) {
	for _, l := range []*respLease{
		{
			keys:  []uint32{7, 42},
			vecs:  [][]float32{{1.5, -2.25}, {0, 3e-7}},
			stats: LookupStats{DistinctKeys: 2, PagesRead: 1, PageShare: 0.5, BatchSize: 1, LatencyNS: 1234, Generation: 1},
		},
		{
			keys:     []uint32{9},
			vecs:     [][]float32{{float32(math.Inf(1))}},
			failed:   []uint32{11, 12},
			degraded: true,
			stats: LookupStats{DistinctKeys: 3, CacheHits: 1, PagesRead: 2, BatchSize: 4,
				Retries: 2, ReplicaRescues: 1, ShardReroutes: 3, StoreFallbacks: 1, LatencyNS: 99, Generation: 7},
		},
		{keys: []uint32{1}, vecs: [][]float32{{float32(math.NaN())}}},
		{keys: []uint32{2}, vecs: [][]float32{{float32(math.Inf(-1))}}},
		{keys: []uint32{3}, vecs: [][]float32{{float32(math.Copysign(0, -1))}}},
		{keys: []uint32{4}, vecs: [][]float32{{math.SmallestNonzeroFloat32, -0x1p-130}}},
		// strconv 'g' writes these as 1e-05 and 2e+06; encoding/json as
		// 0.00001 and 2000000. Parse-equal, not byte-equal.
		{keys: []uint32{5}, vecs: [][]float32{{1e-5}}},
		{keys: []uint32{6}, vecs: [][]float32{{2e6}}, stats: LookupStats{PageShare: 1e-5}},
	} {
		checkParseEqual(t, l)
	}
}

// checkParseEqual encodes l and fails t unless the output parses to the
// same LookupResponse as json.Marshal of the lease's contents (with the
// hand encoder's non-finite clamp applied). It returns the encoding.
func checkParseEqual(t *testing.T, l *respLease) []byte {
	t.Helper()
	hand := l.encodeJSON(nil)
	ref := LookupResponse{Embeddings: map[uint32][]float32{}, Degraded: l.degraded, Stats: l.stats}
	for i, k := range l.keys {
		vec := make([]float32, len(l.vecs[i]))
		for j, f := range l.vecs[i] {
			if f64 := float64(f); !math.IsNaN(f64) && !math.IsInf(f64, 0) {
				vec[j] = f
			}
		}
		ref.Embeddings[k] = vec
	}
	if l.degraded {
		ref.FailedKeys = l.failed
	}
	var fromHand, fromRef LookupResponse
	if err := json.Unmarshal(hand, &fromHand); err != nil {
		t.Fatalf("hand-rolled output does not parse: %v\n%s", err, hand)
	}
	refBytes, err := json.Marshal(ref)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(refBytes, &fromRef); err != nil {
		t.Fatal(err)
	}
	if !jsonEqual(t, fromHand, fromRef) {
		t.Fatalf("hand-rolled JSON diverges:\nhand: %s\nref:  %s", hand, refBytes)
	}
	return hand
}

func jsonEqual(t *testing.T, a, b LookupResponse) bool {
	t.Helper()
	ab, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	bb, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.Equal(ab, bb)
}

// FuzzEncodeJSON checks the hand-rolled encoder on generated leases: fuzzed
// keys, raw vector bits (NaN, ±Inf, subnormals included), failed keys and
// stats. The output must parse, be parse-equal to json.Marshal of the same
// LookupResponse, and render every element as strconv 'g' shortest text
// ("0" for non-finite values).
func FuzzEncodeJSON(f *testing.F) {
	f.Add([]byte{7, 0, 0, 0, 42, 0, 0, 0}, []byte{0, 0, 0xc0, 0x3f, 0x17, 0xb7, 0xd1, 0x38}, uint8(2),
		[]byte{11, 0, 0, 0}, true, int64(3), 0.5, uint64(1))
	f.Add([]byte{1, 0, 0, 0}, []byte{0, 0, 0xc0, 0x7f, 0, 0, 0x80, 0xff, 0, 0, 0, 0x80, 1, 0, 0, 0}, uint8(4),
		[]byte{}, false, int64(-1), 1e-7, uint64(1<<63))
	f.Fuzz(func(t *testing.T, keyBytes, vecBytes []byte, dim uint8, failedBytes []byte,
		degraded bool, n int64, share float64, gen uint64) {
		if math.IsNaN(share) || math.IsInf(share, 0) {
			share = 0 // the engine's page share is always finite
		}
		u32 := func(b []byte, i int) uint32 {
			var v uint32
			for j := 0; j < 4; j++ {
				if k := 4*i + j; k < len(b) {
					v |= uint32(b[k]) << (8 * j)
				}
			}
			return v
		}
		l := &respLease{
			degraded: degraded,
			stats: LookupStats{DistinctKeys: int(n), CacheHits: int(n >> 8), PagesRead: int(n >> 16),
				PageShare: share, BatchSize: int(n >> 24), Retries: int(n % 3), ReplicaRescues: int(n % 5),
				ShardReroutes: int(n % 7), StoreFallbacks: int(n % 11), LatencyNS: n, Generation: gen},
		}
		d := int(dim % 17)
		seen := map[uint32]bool{}
		elem := 0
		for i := 0; i < (len(keyBytes)+3)/4 && i < 64; i++ {
			k := u32(keyBytes, i)
			if seen[k] {
				continue // a response carries each distinct key once
			}
			seen[k] = true
			vec := make([]float32, d)
			for j := range vec {
				vec[j] = math.Float32frombits(u32(vecBytes, elem%max(1, (len(vecBytes)+3)/4)))
				elem++
			}
			l.keys = append(l.keys, k)
			l.vecs = append(l.vecs, vec)
		}
		for i := 0; i < (len(failedBytes)+3)/4 && i < 64; i++ {
			l.failed = append(l.failed, u32(failedBytes, i))
		}

		hand := checkParseEqual(t, l)

		var texts struct {
			Embeddings map[string][]json.RawMessage `json:"embeddings"`
		}
		if err := json.Unmarshal(hand, &texts); err != nil {
			t.Fatal(err)
		}
		var want []byte
		for i, k := range l.keys {
			got := texts.Embeddings[strconv.FormatUint(uint64(k), 10)]
			if len(got) != len(l.vecs[i]) {
				t.Fatalf("key %d: %d elements, want %d", k, len(got), len(l.vecs[i]))
			}
			for j, v := range l.vecs[i] {
				want = want[:0]
				if x := float64(v); math.IsNaN(x) || math.IsInf(x, 0) {
					want = append(want, '0')
				} else {
					want = strconv.AppendFloat(want, x, 'g', -1, 32)
				}
				if !bytes.Equal(got[j], want) {
					t.Fatalf("key %d elem %d (%#08x): %s, want %s", k, j, math.Float32bits(v), got[j], want)
				}
			}
		}
	})
}

// TestPprofGating: profiling endpoints exist only when opted in.
func TestPprofGating(t *testing.T) {
	s := newTestStack(t, 0.2, nil)
	off := s.serve(t)
	resp, err := http.Get(off.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("pprof without opt-in: status %d, want 404", resp.StatusCode)
	}

	s2 := newTestStack(t, 0.2, nil)
	on := s2.serve(t, WithPprof())
	for _, path := range []string{"/debug/pprof/", "/debug/pprof/cmdline", "/debug/pprof/symbol"} {
		resp, err := http.Get(on.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s with -pprof: status %d", path, resp.StatusCode)
		}
	}
}

// TestMetricsBackendLatencyHistogram: a real-I/O backend exports its
// measured per-shard read-latency histogram; the simulator does not.
func TestMetricsBackendLatencyHistogram(t *testing.T) {
	s := newFileStack(t, 2, nil)
	srv := s.serve(t)
	for i := 0; i < 10; i++ {
		if resp, _ := postLookup(t, srv.URL, s.tr.Queries[i]); resp.StatusCode != http.StatusOK {
			t.Fatalf("lookup %d: status %d", i, resp.StatusCode)
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
	for _, needle := range []string{
		"# TYPE maxembed_backend_read_latency_seconds histogram",
		`maxembed_backend_read_latency_seconds_bucket{shard="0",le="+Inf"}`,
		`maxembed_backend_read_latency_seconds_bucket{shard="1",le="+Inf"}`,
		`maxembed_backend_read_latency_seconds_count{shard="0"}`,
		`maxembed_backend_read_latency_seconds_sum{shard="0"}`,
	} {
		if !strings.Contains(text, needle) {
			t.Errorf("metrics output missing %q", needle)
		}
	}
	// Buckets must be cumulative and end at the total count.
	var total int64
	fmt.Sscanf(textAfter(t, text, `maxembed_backend_read_latency_seconds_count{shard="0"} `), "%d", &total)
	if total == 0 {
		t.Fatal("shard 0 histogram count is zero after lookups")
	}
	var inf int64
	fmt.Sscanf(textAfter(t, text, `maxembed_backend_read_latency_seconds_bucket{shard="0",le="+Inf"} `), "%d", &inf)
	if inf != total {
		t.Fatalf("+Inf bucket %d != count %d", inf, total)
	}

	// The simulated stack has no measured latency to report.
	sim := newTestStack(t, 0.2, nil)
	simSrv := sim.serve(t)
	r2, err := http.Get(simSrv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Body.Close()
	simBody, err := io.ReadAll(r2.Body)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(simBody), "maxembed_backend_read_latency_seconds") {
		t.Error("simulated backend exported a measured-latency histogram")
	}
}

// TestMetricsHistogramsUnderLoad scrapes /metrics while concurrent lookups
// run through the coalescer on the file backend, so both histograms — the
// coalescer's batch sizes and the backend's measured read latency — move
// during each scrape. Every scrape must show each series' buckets
// non-decreasing and its +Inf bucket equal to its _count.
func TestMetricsHistogramsUnderLoad(t *testing.T) {
	s := newFileStack(t, 2, nil)
	srv := s.serve(t, WithCoalescing(4, 100*time.Microsecond))
	const clients, perClient = 4, 60
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	done := make(chan struct{})
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				code, _, err := tryLookup(srv.URL, s.tr.Queries[(c*perClient+i)%len(s.tr.Queries)])
				if err == nil && code != http.StatusOK {
					err = fmt.Errorf("lookup status %d", code)
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	go func() {
		wg.Wait()
		close(done)
	}()
	scrapes := 0
	for finished := false; !finished; scrapes++ {
		select {
		case <-done:
			finished = true // one last scrape of the settled counters
		default:
		}
		resp, err := http.Get(srv.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		series, err := checkHistograms(string(body))
		if err != nil {
			t.Fatalf("scrape %d: %v", scrapes, err)
		}
		if series != 3 {
			t.Fatalf("scrape %d: %d histogram series, want 2 shards + coalescer", scrapes, series)
		}
	}
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	t.Logf("%d scrapes checked", scrapes)
}

// checkHistograms checks the histogram invariants of one Prometheus text
// scrape and returns how many histogram series it holds: within a series
// the cumulative buckets never decrease, and the +Inf bucket equals the
// _count.
func checkHistograms(text string) (int, error) {
	type series struct {
		cum    int64
		inf    int64
		sawInf bool
	}
	all := map[string]*series{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sample, value, _ := strings.Cut(line, " ")
		name, labels, _ := strings.Cut(strings.TrimSuffix(sample, "}"), "{")
		switch {
		case strings.HasSuffix(name, "_bucket"):
			n, err := strconv.ParseInt(value, 10, 64)
			if err != nil {
				return 0, fmt.Errorf("%s: %v", line, err)
			}
			var le string
			var rest []string
			for _, l := range strings.Split(labels, ",") {
				if v, ok := strings.CutPrefix(l, "le="); ok {
					le = v
				} else {
					rest = append(rest, l)
				}
			}
			key := strings.TrimSuffix(name, "_bucket") + "{" + strings.Join(rest, ",") + "}"
			s := all[key]
			if s == nil {
				s = &series{}
				all[key] = s
			}
			if n < s.cum {
				return 0, fmt.Errorf("%s: bucket le=%s holds %d, below the previous bucket's %d", key, le, n, s.cum)
			}
			s.cum = n
			if le == `"+Inf"` {
				s.inf, s.sawInf = n, true
			}
		case strings.HasSuffix(name, "_count"):
			n, err := strconv.ParseInt(value, 10, 64)
			if err != nil {
				return 0, fmt.Errorf("%s: %v", line, err)
			}
			key := strings.TrimSuffix(name, "_count") + "{" + labels + "}"
			s := all[key]
			if s == nil || !s.sawInf {
				return 0, fmt.Errorf("%s: _count with no +Inf bucket before it", key)
			}
			if n != s.inf {
				return 0, fmt.Errorf("%s: +Inf bucket %d != _count %d", key, s.inf, n)
			}
		}
	}
	return len(all), nil
}

func textAfter(t *testing.T, text, prefix string) string {
	t.Helper()
	i := strings.Index(text, prefix)
	if i < 0 {
		t.Fatalf("metrics output missing %q", prefix)
	}
	return text[i+len(prefix):]
}
