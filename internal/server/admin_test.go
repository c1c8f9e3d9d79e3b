package server

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"maxembed/internal/embedding"
	"maxembed/internal/hypergraph"
	"maxembed/internal/placement"
	"maxembed/internal/serving"
	"maxembed/internal/ssd"
	"maxembed/internal/store"
	"maxembed/internal/workload"
)

// testAdmin implements ShardAdmin and Scrubber over a sharded serving
// stack, the way maxembed.DB does in production: rebuilds swap a fresh
// engine, built from cfg over the repaired array, into the shared handle.
type testAdmin struct {
	handle *serving.Swappable
	cfg    serving.Config
	sh     *store.Sharded
}

// swapOver builds an engine from cfg over be and swaps it into the handle.
func (a *testAdmin) swapOver(be ssd.Backend) error {
	cfg := a.cfg
	cfg.Backend = be
	eng, err := serving.New(cfg)
	if err != nil {
		return err
	}
	_, err = a.handle.Swap(eng)
	return err
}

func (a *testAdmin) cur() *ssd.Array {
	return a.handle.Engine().Backend().(*ssd.Array)
}

func (a *testAdmin) ShardHealth() []ssd.ShardHealthInfo { return a.cur().ShardHealths() }

func (a *testAdmin) FailShard(i int) error {
	arr := a.cur()
	arr.SetShardFaultModel(i, ssd.AlwaysFail{})
	arr.FailShard(i)
	return nil
}

func (a *testAdmin) RebuildShard(ctx context.Context, shard int, cfg serving.RebuildConfig) (serving.RebuildReport, error) {
	nb, rep, err := serving.RebuildShard(ctx, a.handle.Engine(), shard, cfg)
	if err != nil {
		return rep, err
	}
	return rep, a.swapOver(nb)
}

func (a *testAdmin) Scrub(ctx context.Context, cfg serving.ScrubConfig) (serving.ScrubReport, error) {
	return serving.Scrub(ctx, a.handle.Engine(), cfg)
}

// newAdminServer builds a 2-shard stack with a hot spare and the admin
// endpoints enabled.
func newAdminServer(t *testing.T) (*httptest.Server, *testAdmin, *workload.Trace) {
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
		Capacity: embedding.PageCapacity(4096, testDim), ReplicationRatio: 0.2,
		Seed: 1, Shards: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	syn, err := embedding.NewSynthesizer(testDim, 5)
	if err != nil {
		t.Fatal(err)
	}
	sh, err := store.BuildSharded(lay, syn, 4096, 2)
	if err != nil {
		t.Fatal(err)
	}
	arr, err := ssd.NewArray(ssd.P5800X, 2)
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
	cfg := serving.Config{Layout: lay, Backend: arr, Store: sh, IndexLimit: 10, Pipeline: true}
	eng, err := serving.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	handle := serving.NewSwappable(eng)
	admin := &testAdmin{handle: handle, cfg: cfg, sh: sh}
	h := NewDynamic(handle, arr, WithShardAdmin(admin), WithScrub(admin))
	srv := httptest.NewServer(h)
	t.Cleanup(func() {
		srv.Close()
		h.Close()
	})
	return srv, admin, tr
}

// healthzBody is the JSON shape /healthz returns on shard-aware backends.
type healthzBody struct {
	Status     string             `json:"status"`
	DeadShards int                `json:"dead_shards"`
	Shards     []ShardHealthEntry `json:"shards"`
}

func postJSON(t *testing.T, url string, v any) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	if v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("decoding %s: %v", url, err)
		}
	}
	resp.Body.Close()
	return resp
}

// TestShardFailAndRebuildEndpoints drives the full drill over HTTP: kill
// a shard, observe the node stay ready and keep serving, rebuild onto the
// spare, and observe redundancy restored end to end.
func TestShardFailAndRebuildEndpoints(t *testing.T) {
	srv, admin, tr := newAdminServer(t)

	for i := 0; i < 40; i++ {
		if resp, _ := postLookup(t, srv.URL, tr.Queries[i]); resp.StatusCode != http.StatusOK {
			t.Fatalf("warm lookup %d status = %d", i, resp.StatusCode)
		}
	}

	// Chaos: kill shard 0 over the API.
	var fr struct {
		Shard  int                `json:"shard"`
		Shards []ShardHealthEntry `json:"shards"`
	}
	if resp := postJSON(t, srv.URL+"/v1/shards/0/fail", &fr); resp.StatusCode != http.StatusOK {
		t.Fatalf("fail endpoint status = %d", resp.StatusCode)
	}
	if len(fr.Shards) != 2 || fr.Shards[0].State != "failed" {
		t.Fatalf("fail response shards = %+v", fr.Shards)
	}

	// One dead shard of two is within the default tolerance: the node
	// stays ready, reporting the dead shard in the healthz body.
	var hz healthzBody
	r := getJSON(t, srv.URL+"/healthz", &hz)
	if r.StatusCode != http.StatusOK {
		t.Fatalf("healthz status with 1 dead shard = %d, want 200", r.StatusCode)
	}
	if hz.Status != "ok" || hz.DeadShards != 1 {
		t.Fatalf("healthz body = %+v", hz)
	}

	// Lookups keep succeeding: replica reroute plus host-store fallback
	// mean no key is lost with a whole shard dark.
	for i := 40; i < 80; i++ {
		resp, lr := postLookup(t, srv.URL, tr.Queries[i])
		if resp.StatusCode != http.StatusOK || lr.Degraded {
			t.Fatalf("lookup %d with dead shard: status %d degraded %v", i, resp.StatusCode, lr.Degraded)
		}
	}

	var sr StatsResponse
	getJSON(t, srv.URL+"/v1/stats", &sr)
	if sr.Health.DeadShards != 1 || !sr.Health.Ready {
		t.Fatalf("stats health = %+v", sr.Health)
	}
	if sr.Shards[0].State != "failed" || sr.Shards[1].State != "healthy" {
		t.Fatalf("stats shard states = %q/%q", sr.Shards[0].State, sr.Shards[1].State)
	}
	if !sr.Rebuild.Enabled || !sr.Scrub.Enabled {
		t.Fatal("stats does not report admin endpoints enabled")
	}
	if sr.Recovery.ShardReroutes+sr.Recovery.StoreFallbacks == 0 {
		t.Fatal("no reroutes or store fallbacks counted with a dead shard")
	}

	// Rebuild onto the spare over the API.
	var rr RebuildResponse
	if resp := postJSON(t, srv.URL+"/v1/shards/0/rebuild?pages_per_sec=100000", &rr); resp.StatusCode != http.StatusOK {
		t.Fatalf("rebuild endpoint status = %d", resp.StatusCode)
	}
	if rr.LocalPages == 0 || rr.MTTRNS <= 0 {
		t.Fatalf("rebuild response = %+v", rr)
	}
	if st := admin.cur().ShardState(0); st != ssd.ShardHealthy {
		t.Fatalf("shard 0 state after rebuild = %v", st)
	}

	// Redundancy restored: healthz clean, stats reflect the rebuild, and
	// lookups touch the repaired shard without faulting.
	getJSON(t, srv.URL+"/healthz", &hz)
	if hz.DeadShards != 0 {
		t.Fatalf("healthz dead shards after rebuild = %d", hz.DeadShards)
	}
	getJSON(t, srv.URL+"/v1/stats", &sr)
	if sr.Rebuild.Rebuilds != 1 || sr.Rebuild.LastMTTRNS != rr.MTTRNS || sr.Rebuild.Last == nil {
		t.Fatalf("stats rebuild section = %+v", sr.Rebuild)
	}
	for i := 80; i < 120; i++ {
		resp, lr := postLookup(t, srv.URL, tr.Queries[i])
		if resp.StatusCode != http.StatusOK || lr.Degraded {
			t.Fatalf("post-rebuild lookup %d: status %d degraded %v", i, resp.StatusCode, lr.Degraded)
		}
	}

	mr, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(mr.Body)
	mr.Body.Close()
	for _, want := range []string{
		"maxembed_shard_state{shard=\"0\"} 0",
		"maxembed_rebuild_total 1",
		"maxembed_dead_shards 0",
		"maxembed_shard_reroutes_total",
		"maxembed_store_fallbacks_total",
		"maxembed_rebuild_last_mttr_ns",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// The spare is consumed: a second rebuild must refuse.
	if resp := postJSON(t, srv.URL+"/v1/shards/1/rebuild", nil); resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("spare-less rebuild status = %d, want 422", resp.StatusCode)
	}

	// Killing both shards exceeds the tolerance: the node goes unhealthy.
	postJSON(t, srv.URL+"/v1/shards/0/fail", nil)
	postJSON(t, srv.URL+"/v1/shards/1/fail", nil)
	r = getJSON(t, srv.URL+"/healthz", &hz)
	if r.StatusCode != http.StatusServiceUnavailable || hz.DeadShards != 2 {
		t.Fatalf("healthz with all shards dead: status %d body %+v", r.StatusCode, hz)
	}
}

// TestScrubEndpoint injects at-rest corruption and drives a sweep over
// the API, checking detection counts and the stats/metrics surface.
func TestScrubEndpoint(t *testing.T) {
	srv, admin, _ := newAdminServer(t)

	// Rot one slot in the store image.
	if err := admin.sh.CorruptSlot(0, 0); err != nil {
		t.Fatal(err)
	}

	var det ScrubResponse
	if resp := postJSON(t, srv.URL+"/v1/scrub?detect_only=true&pages_per_sec=1000000", &det); resp.StatusCode != http.StatusOK {
		t.Fatalf("scrub status = %d", resp.StatusCode)
	}
	if det.LatentSlots != 1 || det.RepairedSlots != 0 {
		t.Fatalf("detect-only scrub latent/repaired = %d/%d, want 1/0", det.LatentSlots, det.RepairedSlots)
	}
	if det.PagesScanned == 0 || det.SlotsVerified == 0 {
		t.Fatalf("scrub scanned nothing: %+v", det)
	}

	// A repairing sweep either fixes the slot (replica exists) or reports
	// it unrepairable (no replica); afterwards a clean sweep agrees.
	var rep ScrubResponse
	postJSON(t, srv.URL+"/v1/scrub", &rep)
	if rep.LatentSlots != 1 || rep.RepairedSlots+rep.UnrepairableSlots != 1 {
		t.Fatalf("repair sweep = %+v", rep)
	}
	if rep.RepairedSlots == 1 {
		var clean ScrubResponse
		postJSON(t, srv.URL+"/v1/scrub", &clean)
		if clean.LatentSlots != 0 {
			t.Fatalf("post-repair sweep still finds %d latent slots", clean.LatentSlots)
		}
	}

	var sr StatsResponse
	getJSON(t, srv.URL+"/v1/stats", &sr)
	if sr.Scrub.Sweeps < 2 || sr.Scrub.Last == nil || sr.Scrub.LatentSlots < 2 {
		t.Fatalf("stats scrub section = %+v", sr.Scrub)
	}
	if sr.Scrub.ProgressPages != int64(sr.Scrub.Last.PagesScanned)+int64(sr.Scrub.Last.PagesSkipped) &&
		sr.Scrub.ProgressPages == 0 {
		t.Fatalf("scrub progress gauge = %d", sr.Scrub.ProgressPages)
	}

	if resp := postJSON(t, srv.URL+"/v1/scrub?pages_per_sec=bogus", nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bogus rate status = %d, want 400", resp.StatusCode)
	}
}

// TestAdminEndpointsUnconfigured: without a shard admin or scrubber the
// endpoints answer 501, and bad shard indexes answer 400.
func TestAdminEndpointsUnconfigured(t *testing.T) {
	srv, _, _ := newTestServer(t)
	if resp := postJSON(t, srv.URL+"/v1/scrub", nil); resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("scrub status = %d, want 501", resp.StatusCode)
	}
	if resp := postJSON(t, srv.URL+"/v1/shards/0/fail", nil); resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("fail status = %d, want 501", resp.StatusCode)
	}
	if resp := postJSON(t, srv.URL+"/v1/shards/0/rebuild", nil); resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("rebuild status = %d, want 501", resp.StatusCode)
	}
}

// TestShardIndexValidation: the admin endpoints reject junk shard paths.
func TestShardIndexValidation(t *testing.T) {
	srv, _, _ := newAdminServer(t)
	for _, path := range []string{"/v1/shards/x/fail", "/v1/shards/-1/fail", "/v1/shards/9/fail", "/v1/shards/9/rebuild"} {
		if resp := postJSON(t, srv.URL+path, nil); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s status = %d, want 400", path, resp.StatusCode)
		}
	}
}
