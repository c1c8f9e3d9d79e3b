package server

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"maxembed/internal/embedding"
	"maxembed/internal/hypergraph"
	"maxembed/internal/layout"
	"maxembed/internal/placement"
	"maxembed/internal/serving"
	"maxembed/internal/ssd"
	"maxembed/internal/store"
	"maxembed/internal/workload"
)

// updateGolden rewrites the /v1/stats, /metrics and /healthz golden files
// from the current code:
//
//	go test -run TestStatsMetricsGolden -update ./internal/server
var updateGolden = flag.Bool("update", false, "rewrite the golden files under testdata/")

// goldenCacheEntries is far above the 800-item workload, so no cache shard
// evicts whatever shard count GOMAXPROCS gives the cache.
const goldenCacheEntries = 1 << 14

// stepClock is a fake clock that advances one millisecond per reading, so
// measured durations are fixed by the sequence of calls alone.
type stepClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *stepClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(time.Millisecond)
	return c.t
}

func newStepClock() *stepClock {
	return &stepClock{t: time.Date(2024, 4, 27, 0, 0, 0, 0, time.UTC)}
}

// refreshingAdmin adds the refresh source to testAdmin: a refresh builds
// a fresh engine over the current array and swaps it in.
type refreshingAdmin struct{ *testAdmin }

func (a refreshingAdmin) PendingQueries() int64 { return 7 }

func (a refreshingAdmin) RefreshNow() error { return a.swapOver(a.cur()) }

// goldenTrace generates the test workload (the profile newTestStack uses)
// and its hypergraph.
func goldenTrace(t *testing.T) (*workload.Trace, *hypergraph.Graph) {
	t.Helper()
	tr, err := workload.Generate(workload.Profile{
		Name: "t", Items: 800, Queries: 1500, MeanQueryLen: 8,
		Communities: 60, CommunityAffinity: 0.8, CommunitySpread: 0.5,
		ZipfS: 1.2, PopularityOffset: 0.05, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	g, err := hypergraph.FromQueries(tr.NumItems, tr.Queries)
	if err != nil {
		t.Fatal(err)
	}
	return tr, g
}

// serveStep sends one request straight through the handler (no network,
// so each request completes before the next starts) and fails the test
// on any status but want.
func serveStep(t *testing.T, h *Handler, method, target string, body []byte, want int) []byte {
	t.Helper()
	req := httptest.NewRequest(method, target, bytes.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != want {
		t.Fatalf("%s %s: status %d, want %d: %s", method, target, rec.Code, want, rec.Body.Bytes())
	}
	return rec.Body.Bytes()
}

func serveLookups(t *testing.T, h *Handler, queries [][]uint32) {
	t.Helper()
	for _, q := range queries {
		body, err := json.Marshal(LookupRequest{Keys: q})
		if err != nil {
			t.Fatal(err)
		}
		serveStep(t, h, http.MethodPost, "/v1/lookup", body, http.StatusOK)
	}
}

// goldenSingle drives a single simulated device with a DRAM cache, the
// coalescer, and a refresh source through sequential lookups and one
// refresh.
func goldenSingle(t *testing.T) *Handler {
	s := newTestStack(t, 0.2, func(c *serving.Config) { c.CacheEntries = goldenCacheEntries })
	handle := serving.NewSwappable(s.eng)
	src := newFakeSource(t, s, handle, 1)
	src.pending.Store(11)
	h := NewDynamic(handle, s.dev, WithRefresh(src), WithClock(newStepClock().now))
	t.Cleanup(h.Close)
	serveLookups(t, h, s.tr.Queries[:60])
	serveStep(t, h, http.MethodPost, "/v1/refresh", nil, http.StatusOK)
	serveLookups(t, h, s.tr.Queries[60:100])
	return h
}

// goldenArray drives a 1×P5800X + 3×P4510 tiered array with DRAM pins,
// shadow caches, and a co-activation report through lookups, one
// refresh, one repairing scrub over a rotted slot, a shard failure
// rebuilt onto the hot spare, and a second shard left failed.
func goldenArray(t *testing.T) *Handler {
	tr, g := goldenTrace(t)
	lay, err := placement.Build(placement.StrategyMaxEmbed, g, placement.Options{
		Capacity: embedding.PageCapacity(4096, testDim), ReplicationRatio: 0.2,
		Seed: 1, Shards: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	arr, err := ssd.NewTieredArray([]ssd.TierSpec{
		{Profile: ssd.P5800X, Devices: 1},
		{Profile: ssd.P4510, Devices: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	spare, err := ssd.NewDevice(ssd.P5800X)
	if err != nil {
		t.Fatal(err)
	}
	if err := arr.AttachSpare(spare); err != nil {
		t.Fatal(err)
	}
	lay, _, err = placement.Retier(lay,
		placement.PageHeat(lay, placement.KeyFreq(lay.NumKeys, tr.Queries)),
		arr.TierShardMap())
	if err != nil {
		t.Fatal(err)
	}
	lay, rep, err := placement.Despread(lay, g, 4, arr.TierShardMap())
	if err != nil {
		t.Fatal(err)
	}
	syn, err := embedding.NewSynthesizer(testDim, 5)
	if err != nil {
		t.Fatal(err)
	}
	sh, err := store.BuildSharded(lay, syn, 4096, 4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := serving.Config{
		Layout:         lay,
		Backend:        arr,
		Store:          sh,
		CacheEntries:   goldenCacheEntries,
		SegmentedCache: true,
		PinnedKeys:     []layout.Key{tr.Queries[0][0], tr.Queries[1][0], tr.Queries[2][0]},
		ShadowSizes:    []int{32, 128, 512},
		IndexLimit:     10,
		Pipeline:       true,
	}
	eng, err := serving.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	handle := serving.NewSwappable(eng)
	admin := &testAdmin{handle: handle, cfg: cfg, sh: sh}
	h := NewDynamic(handle, arr,
		WithRefresh(refreshingAdmin{admin}), WithShardAdmin(admin), WithScrub(admin),
		WithSpreadReport(fixedSpread{rep: rep}), WithClock(newStepClock().now))
	t.Cleanup(h.Close)

	serveLookups(t, h, tr.Queries[:40])
	serveStep(t, h, http.MethodPost, "/v1/refresh", nil, http.StatusOK)
	serveLookups(t, h, tr.Queries[40:60])
	if err := sh.CorruptSlot(0, 0); err != nil {
		t.Fatal(err)
	}
	serveStep(t, h, http.MethodPost, "/v1/scrub?pages_per_sec=1000000", nil, http.StatusOK)
	serveStep(t, h, http.MethodPost, "/v1/shards/0/fail", nil, http.StatusOK)
	serveLookups(t, h, tr.Queries[60:80])
	serveStep(t, h, http.MethodPost, "/v1/shards/0/rebuild?pages_per_sec=20000", nil, http.StatusOK)
	serveLookups(t, h, tr.Queries[80:100])
	serveStep(t, h, http.MethodPost, "/v1/shards/2/fail", nil, http.StatusOK)
	serveLookups(t, h, tr.Queries[100:110])
	return h
}

// TestStatsMetricsGolden pins the /v1/stats, /metrics and /healthz bodies
// of two deterministic scenarios byte for byte: every value comes off the
// virtual clock or the step clock, so no body depends on wall time or
// GOMAXPROCS.
func TestStatsMetricsGolden(t *testing.T) {
	for _, sc := range []struct {
		name string
		run  func(*testing.T) *Handler
	}{
		{"single", goldenSingle},
		{"array", goldenArray},
	} {
		t.Run(sc.name, func(t *testing.T) {
			h := sc.run(t)
			for _, ep := range []struct{ path, file string }{
				{"/v1/stats", sc.name + "_stats.json"},
				{"/metrics", sc.name + "_metrics.txt"},
				{"/healthz", sc.name + "_healthz.txt"},
			} {
				got := serveStep(t, h, http.MethodGet, ep.path, nil, http.StatusOK)
				path := filepath.Join("testdata", "golden", ep.file)
				if *updateGolden {
					if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
						t.Fatal(err)
					}
					if err := os.WriteFile(path, got, 0o644); err != nil {
						t.Fatal(err)
					}
					continue
				}
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("%s differs from %s:\n%s", ep.path, path, firstDiff(string(got), string(want)))
				}
			}
		})
	}
}

// firstDiff reports the first line where got and want part.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			return fmt.Sprintf("line %d:\n got: %s\nwant: %s", i+1, gl, wl)
		}
	}
	return "(same lines, different bytes)"
}
