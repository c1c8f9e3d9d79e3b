// Package server exposes a MaxEmbed serving engine over HTTP: the shape a
// production embedding-parameter service takes in a DLRM inference stack
// (Figure 1 of the paper — the embedding layer feeding the dense model).
//
// Endpoints:
//
//	POST /v1/lookup   {"keys":[1,2,3]}  → embeddings + per-query stats
//	POST /v1/refresh                    → rebuild layout from history, hot-swap
//	GET  /v1/stats                      → engine/device/cache/refresh counters
//	GET  /healthz                       → readiness (error-rate driven)
//
// Sessions (each owning an SSD queue pair and virtual clock) are pooled
// across requests, mirroring the per-thread serving contexts of §8.4.
//
// The API degrades rather than fails under device faults: a lookup the
// engine could only partially recover returns 206 Partial Content with the
// unserved keys in "failed_keys"; when the rolling read-error rate crosses
// the unhealthy threshold the server sheds load with 503 + Retry-After
// (letting a fraction of probe requests through so recovery is noticed)
// and /healthz reports not-ready for load-balancer eviction.
package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	httppprof "net/http/pprof"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"maxembed/internal/metrics"
	"maxembed/internal/serving"
	"maxembed/internal/ssd"
)

// Defaults for the health probe; override with the With* options.
const (
	defaultHealthWindow       = 128
	defaultUnhealthyThreshold = 0.5
	defaultMinHealthEvents    = 20
	defaultRetryAfterSec      = 1
	defaultProbeEvery         = 8
	// defaultShardFailTolerance is the fraction of dead shards the node
	// tolerates before reporting unhealthy (multi-shard backends only).
	defaultShardFailTolerance = 0.5
)

// Option configures a Handler.
type Option func(*Handler)

// WithHealthWindow sets how many recent lookups the rolling error-rate
// window spans (default 128).
func WithHealthWindow(lookups int) Option {
	return func(h *Handler) { h.window = metrics.NewRateWindow(lookups) }
}

// WithUnhealthyThreshold sets the read-fault fraction above which the
// server stops admitting traffic, and the minimum number of page reads the
// window must cover before the verdict is trusted (defaults 0.5 over 20
// reads — a cold window is always healthy).
func WithUnhealthyThreshold(rate float64, minEvents int64) Option {
	return func(h *Handler) { h.threshold, h.minEvents = rate, minEvents }
}

// WithRetryAfter sets the Retry-After value (seconds) attached to 503
// responses while unhealthy (default 1).
func WithRetryAfter(seconds int) Option {
	return func(h *Handler) { h.retryAfterSec = seconds }
}

// WithCoalescing configures cross-request micro-batching: up to maxBatch
// concurrent lookups are gathered into one coalesced serving pass, waiting
// at most maxWait for the batch to fill once two or more requests are
// pending (a lone request is always dispatched immediately). maxBatch ≤ 1
// disables coalescing and serves every request in isolation from a worker
// pool. Defaults: maxBatch 8, maxWait 250µs.
func WithCoalescing(maxBatch int, maxWait time.Duration) Option {
	return func(h *Handler) { h.maxBatch, h.maxWait = maxBatch, maxWait }
}

// WithoutCoalescing serves every request in isolation (the pre-batching
// architecture); equivalent to WithCoalescing(1, 0).
func WithoutCoalescing() Option {
	return func(h *Handler) { h.maxBatch, h.maxWait = 1, 0 }
}

// WithCoalesceQueue bounds how many requests may wait for the coalescer
// before backpressure sheds new arrivals with 503 (default 1024).
func WithCoalesceQueue(n int) Option {
	return func(h *Handler) { h.coalesceQueue = n }
}

// WithPprof exposes Go's runtime profiling endpoints under /debug/pprof/
// on the handler's own mux. Off by default: profiling handlers leak
// operational detail and burn CPU when scraped, so production servers opt
// in explicitly (the -pprof flag on cmd/maxembed-server).
func WithPprof() Option {
	return func(h *Handler) { h.pprofEnabled = true }
}

// Handler serves the HTTP API for one engine (or, with NewDynamic, a
// swappable engine handle that layout refreshes update in place).
type Handler struct {
	handle  *serving.Swappable
	backend ssd.Backend
	mux     *http.ServeMux
	workers sync.Pool // *poolWorker entries, tagged with their generation

	window        *metrics.RateWindow
	threshold     float64
	minEvents     int64
	retryAfterSec int
	probeSeq      atomic.Int64 // admits every Nth request while unhealthy

	maxBatch      int
	maxWait       time.Duration
	coalesceQueue int
	coal          *coalescer // nil when coalescing is disabled
	closeOnce     sync.Once
	pprofEnabled  bool

	nowFn func() time.Time // injected clock (WithClock); wall clock by default

	spreadSrc SpreadReporter // last despread pass for /v1/stats, nil unless wired

	refreshSrc        RefreshSource
	refreshInterval   time.Duration
	refreshMinQueries int64
	refreshMu         sync.Mutex // serializes admin- and loop-triggered refreshes
	refreshes         atomic.Int64
	refreshErrors     atomic.Int64
	lastRefreshNS     atomic.Int64
	refreshQuit       chan struct{}
	refreshDone       chan struct{}

	shardAdmin                                    ShardAdmin
	scrubber                                      Scrubber
	shardTolerance                                float64    // dead-shard fraction above which the node is unhealthy
	scrubMu                                       sync.Mutex // serializes admin scrub sweeps
	rebuildMu                                     sync.Mutex // serializes admin rebuilds
	adminMu                                       sync.Mutex // guards lastScrub / lastRebuild
	lastScrub                                     *ScrubResponse
	lastRebuild                                   *RebuildResponse
	scrubs, scrubErrors, scrubScanned, scrubTotal atomic.Int64
	scrubLatent, scrubRepaired, scrubUnrepairable atomic.Int64
	rebuilds, rebuildErrors                       atomic.Int64
	rebuildCopied, rebuildTotal, lastMTTRNS       atomic.Int64
	scrubRunning, rebuildRunning                  atomic.Bool
}

// New returns a handler over the given engine and its read backend (a
// single *ssd.Device or a multi-shard ssd.Array). Coalescing is on by
// default (see WithCoalescing); call Close when done to stop the
// coalescer goroutine. The engine is wrapped in a single-generation
// swappable handle; use NewDynamic to share a handle that refreshes swap.
func New(eng *serving.Engine, backend ssd.Backend, opts ...Option) *Handler {
	return NewDynamic(serving.NewSwappable(eng), backend, opts...)
}

// NewDynamic returns a handler over a swappable engine handle: when a
// layout refresh swaps a new engine into the handle, pooled request
// workers and the coalescer re-bind to it at their next lookup, so the
// swap needs no connection draining or restart. Call Close when done to
// stop the coalescer and refresh-loop goroutines.
func NewDynamic(handle *serving.Swappable, backend ssd.Backend, opts ...Option) *Handler {
	h := &Handler{
		handle:         handle,
		backend:        backend,
		mux:            http.NewServeMux(),
		window:         metrics.NewRateWindow(defaultHealthWindow),
		threshold:      defaultUnhealthyThreshold,
		minEvents:      defaultMinHealthEvents,
		retryAfterSec:  defaultRetryAfterSec,
		maxBatch:       defaultMaxBatch,
		maxWait:        defaultMaxWait,
		coalesceQueue:  defaultCoalesceQueue,
		shardTolerance: defaultShardFailTolerance,
		nowFn:          time.Now, // the sanctioned injection point (clockcheck)
	}
	for _, o := range opts {
		o(h)
	}
	if h.maxBatch > 1 {
		h.coal = newCoalescer(h, h.maxBatch, h.maxWait, h.coalesceQueue)
		go h.coal.run()
	}
	if h.refreshSrc != nil && h.refreshInterval > 0 {
		h.refreshQuit = make(chan struct{})
		h.refreshDone = make(chan struct{})
		go h.refreshLoop()
	}
	h.mux.HandleFunc("POST /v1/lookup", h.lookup)
	h.mux.HandleFunc("POST /v1/refresh", h.refresh)
	h.mux.HandleFunc("POST /v1/scrub", h.scrub)
	h.mux.HandleFunc("POST /v1/shards/{shard}/fail", h.failShard)
	h.mux.HandleFunc("POST /v1/shards/{shard}/rebuild", h.rebuildShard)
	h.mux.HandleFunc("GET /v1/stats", h.stats)
	h.mux.HandleFunc("GET /metrics", h.metrics)
	h.mux.HandleFunc("GET /healthz", h.health)
	if h.pprofEnabled {
		h.mux.HandleFunc("GET /debug/pprof/", httppprof.Index)
		h.mux.HandleFunc("GET /debug/pprof/cmdline", httppprof.Cmdline)
		h.mux.HandleFunc("GET /debug/pprof/profile", httppprof.Profile)
		h.mux.HandleFunc("GET /debug/pprof/symbol", httppprof.Symbol)
		h.mux.HandleFunc("GET /debug/pprof/trace", httppprof.Trace)
	}
	return h
}

// Handle returns the swappable engine handle the handler serves from.
func (h *Handler) Handle() *serving.Swappable { return h.handle }

// curBackend returns the read backend behind the *current* engine: a
// shard rebuild swaps in an engine over the repaired array, and the
// handler's stats, health, and admin surfaces must follow it rather than
// keep reporting the retired array's (now unobserved) shard state.
func (h *Handler) curBackend() ssd.Backend {
	if be := h.handle.Engine().Backend(); be != nil {
		return be
	}
	return h.backend
}

// Close stops the refresh-loop and coalescer goroutines, serving anything
// already queued first. The handler keeps working afterwards, falling back
// to isolated per-request serving. Safe to call multiple times.
func (h *Handler) Close() {
	h.closeOnce.Do(func() {
		if h.refreshQuit != nil {
			close(h.refreshQuit)
			<-h.refreshDone
		}
		if h.coal != nil {
			h.coal.close()
		}
	})
}

// poolWorker is a pooled per-request worker tagged with the engine
// generation it was created for; stale entries are discarded instead of
// reused, so an engine swap invalidates the pool without coordination.
type poolWorker struct {
	gen uint64
	w   *serving.Worker
}

// getWorker returns a worker bound to the current engine generation,
// draining stale pool entries as it encounters them.
func (h *Handler) getWorker() (*serving.Worker, uint64) {
	eng, gen := h.handle.Load()
	for {
		// Entries are either returned to the pool by putWorker (re-wrapped
		// with their generation) or deliberately dropped here when stale.
		//lint:allow poolreturn stale workers are drained, not leaked
		v := h.workers.Get()
		if v == nil {
			return eng.NewWorker(), gen
		}
		if pw := v.(*poolWorker); pw.gen == gen {
			return pw.w, gen
		}
		// Stale generation: drop the entry (its engine is retired) and
		// keep draining until the pool yields a current one or empties.
	}
}

// putWorker returns a worker to the pool unless a swap has made its
// generation stale, in which case it is dropped so the retired engine's
// page images can be collected.
func (h *Handler) putWorker(w *serving.Worker, gen uint64) {
	if h.handle.Generation() != gen {
		return
	}
	h.workers.Put(&poolWorker{gen: gen, w: w})
}

// ServeHTTP implements http.Handler.
func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h.mux.ServeHTTP(w, r)
}

// LookupRequest is the /v1/lookup request body.
type LookupRequest struct {
	// Keys to fetch. Duplicates are served once.
	Keys []uint32 `json:"keys"`
}

// LookupResponse is the /v1/lookup response body.
type LookupResponse struct {
	// Embeddings maps each distinct requested key to its vector. Empty
	// vectors are returned by timing-only engines.
	Embeddings map[uint32][]float32 `json:"embeddings"`
	// Degraded is set on a partial result (HTTP 206); FailedKeys then
	// lists the requested keys the engine could not serve within its
	// retry budget.
	Degraded   bool     `json:"degraded,omitempty"`
	FailedKeys []uint32 `json:"failed_keys,omitempty"`
	// Stats reports the work behind this lookup.
	Stats LookupStats `json:"stats"`
}

// LookupStats is the JSON projection of serving.QueryStats.
type LookupStats struct {
	DistinctKeys   int     `json:"distinct_keys"`
	CacheHits      int     `json:"cache_hits"`
	PagesRead      int     `json:"pages_read"`
	PageShare      float64 `json:"page_share"`
	BatchSize      int     `json:"batch_size"`
	Retries        int     `json:"retries,omitempty"`
	ReplicaRescues int     `json:"replica_rescues,omitempty"`
	ShardReroutes  int     `json:"shard_reroutes,omitempty"`
	StoreFallbacks int     `json:"store_fallbacks,omitempty"`
	LatencyNS      int64   `json:"virtual_latency_ns"`
	// Generation is the layout generation that served the lookup; it
	// increments when an online refresh swaps a new layout in.
	Generation uint64 `json:"layout_generation"`
}

const maxLookupKeys = 1 << 16

// wantsBinary reports whether the request negotiated the binary lookup
// encoding (Accept: application/octet-stream; see lease.go for the frame).
func wantsBinary(r *http.Request) bool {
	return r != nil && strings.Contains(r.Header.Get("Accept"), "application/octet-stream")
}

// writeLease encodes a leased lookup result into a pooled body buffer,
// releases the lease (unpinning the backend's completion buffers), and
// writes the response. Ref-backed payloads flow completion buffer → body
// buffer → socket with no intermediate representation.
func (h *Handler) writeLease(w http.ResponseWriter, binary bool, status int, l *respLease) {
	bp := respBufPool.Get().(*[]byte)
	buf := (*bp)[:0]
	if binary {
		buf = l.encodeBinary(buf)
		w.Header().Set("Content-Type", "application/octet-stream")
	} else {
		buf = l.encodeJSON(buf)
		w.Header().Set("Content-Type", "application/json")
	}
	l.release()
	w.Header().Set("Content-Length", strconv.Itoa(len(buf)))
	w.WriteHeader(status)
	w.Write(buf)
	*bp = buf
	respBufPool.Put(bp)
}

func (h *Handler) lookup(w http.ResponseWriter, r *http.Request) {
	if nh := h.nodeHealth(h.curBackend(), nil); !nh.ready {
		// Shed load, but admit every Nth request as a probe: its
		// observation refreshes the window, so a recovered device brings
		// the server back without an operator in the loop.
		if h.probeSeq.Add(1)%defaultProbeEvery != 0 {
			w.Header().Set("Retry-After", fmt.Sprint(h.retryAfterSec))
			httpError(w, http.StatusServiceUnavailable,
				"device unhealthy: read-fault rate %.2f over recent lookups", nh.rate)
			return
		}
	}
	var req LookupRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "invalid JSON: %v", err)
		return
	}
	if len(req.Keys) == 0 {
		httpError(w, http.StatusBadRequest, "keys must be non-empty")
		return
	}
	if len(req.Keys) > maxLookupKeys {
		httpError(w, http.StatusBadRequest, "too many keys: %d > %d", len(req.Keys), maxLookupKeys)
		return
	}
	if h.coal != nil {
		if h.lookupCoalesced(w, r, req.Keys) {
			return
		}
		// Coalescer shut down mid-request: fall through to isolated serving.
	}
	h.lookupIsolated(w, r, req.Keys)
}

// lookupCoalesced routes the request through the coalescer. It reports
// false only when the coalescer has shut down and the request should be
// served in isolation instead; a full queue is handled here (503).
func (h *Handler) lookupCoalesced(w http.ResponseWriter, r *http.Request, keys []uint32) bool {
	if h.coal.closing.Load() {
		return false
	}
	h.coal.inflight.Add(1)
	defer h.coal.inflight.Add(-1)
	job := lookupJob{keys: keys, done: make(chan lookupOutcome, 1)}
	if !h.coal.submit(job) {
		if h.coal.closing.Load() {
			return false
		}
		w.Header().Set("Retry-After", fmt.Sprint(h.retryAfterSec))
		httpError(w, http.StatusServiceUnavailable,
			"server overloaded: coalesce queue full")
		return true
	}
	var out lookupOutcome
	select {
	case out = <-job.done:
	case <-h.coal.exited:
		// The coalescer exited after accepting the job; it drains its
		// queue before exiting, so the outcome — if any — is already
		// buffered. Otherwise serve in isolation.
		select {
		case out = <-job.done:
		default:
			return false
		}
	}
	if out.err != nil {
		httpError(w, http.StatusUnprocessableEntity, "lookup: %v", out.err)
		return true
	}
	h.writeLease(w, wantsBinary(r), out.status, out.lease)
	return true
}

// lookupIsolated serves one request on a pooled worker with no batching —
// the path taken when coalescing is disabled. The request context rides
// into the engine's recovery loop, so a client that hangs up stops the
// worker from burning retries on its behalf.
func (h *Handler) lookupIsolated(w http.ResponseWriter, r *http.Request, keys []uint32) {
	worker, gen := h.getWorker()
	res, err := worker.LookupCtx(r.Context(), keys)
	if err != nil {
		h.putWorker(worker, gen)
		httpError(w, http.StatusUnprocessableEntity, "lookup: %v", err)
		return
	}
	h.window.Observe(int64(res.Stats.ReadFaults),
		int64(res.Stats.PagesRead+res.Stats.Retries))
	// Snapshot the result (pinning any zero-copy buffer views) before the
	// worker goes back to the pool, where another request may reuse it.
	lease := newLease(res)
	h.putWorker(worker, gen)
	status := http.StatusOK
	if lease.degraded {
		status = http.StatusPartialContent
	}
	h.writeLease(w, wantsBinary(r), status, lease)
}

// StatsResponse is the /v1/stats response body.
type StatsResponse struct {
	Device struct {
		Reads       int64 `json:"reads"`
		BytesRead   int64 `json:"bytes_read"`
		Errors      int64 `json:"errors"`
		Timeouts    int64 `json:"timeouts"`
		Corruptions int64 `json:"corruptions"`
	} `json:"device"`
	// Shards breaks Device down per member drive of a multi-device
	// backend (one entry on a single device), with each shard's peak
	// observed queue depth.
	Shards []ShardStatsEntry `json:"shards"`
	// Tiers aggregates shard activity per device tier (fastest first) on a
	// heterogeneous backend; omitted when the backend has a single tier.
	Tiers []TierStatsEntry `json:"tiers,omitempty"`
	// Coact reports per-query shard-spread depth and the last
	// co-activation placement pass; omitted on one-shard backends.
	Coact    *CoactStatsEntry `json:"coact,omitempty"`
	Recovery struct {
		ReadErrors      int64 `json:"read_errors"`
		Timeouts        int64 `json:"timeouts"`
		Corruptions     int64 `json:"corruptions_detected"`
		Retries         int64 `json:"retries"`
		ReplicaRescues  int64 `json:"replica_rescues"`
		RecoveredKeys   int64 `json:"recovered_keys"`
		DegradedQueries int64 `json:"degraded_queries"`
		FailedKeys      int64 `json:"failed_keys"`
		ShardReroutes   int64 `json:"shard_reroutes"`
		StoreFallbacks  int64 `json:"store_fallbacks"`
	} `json:"recovery"`
	Health struct {
		Ready        bool    `json:"ready"`
		ErrorRate    float64 `json:"error_rate"`
		WindowEvents int64   `json:"window_events"`
		// Shard-aware verdict detail; zero values on single-device
		// backends, which keep the legacy global-window verdict.
		DeadShards    int     `json:"dead_shards,omitempty"`
		LiveErrorRate float64 `json:"live_error_rate,omitempty"`
	} `json:"health"`
	// Scrub and Rebuild report admin-triggered repair activity on this
	// server (409-guarded; progress gauges update while one runs).
	Scrub struct {
		Enabled       bool           `json:"enabled"`
		Running       bool           `json:"running"`
		Sweeps        int64          `json:"sweeps"`
		Errors        int64          `json:"errors"`
		ProgressPages int64          `json:"progress_pages"`
		ProgressTotal int64          `json:"progress_total"`
		LatentSlots   int64          `json:"latent_slots_total"`
		RepairedSlots int64          `json:"repaired_slots_total"`
		Last          *ScrubResponse `json:"last,omitempty"`
	} `json:"scrub"`
	Rebuild struct {
		Enabled       bool             `json:"enabled"`
		Running       bool             `json:"running"`
		Rebuilds      int64            `json:"rebuilds"`
		Errors        int64            `json:"errors"`
		ProgressPages int64            `json:"progress_pages"`
		ProgressTotal int64            `json:"progress_total"`
		LastMTTRNS    int64            `json:"last_mttr_ns"`
		Last          *RebuildResponse `json:"last,omitempty"`
	} `json:"rebuild"`
	Cache *CacheStatsEntry `json:"cache,omitempty"`
	// Shadow is the ghost-cache miss-rate curve (one point per simulated
	// DRAM capacity); present only when the engine runs shadow caches.
	Shadow  []ShadowPointEntry `json:"shadow,omitempty"`
	Latency struct {
		Count  int     `json:"count"`
		MeanNS float64 `json:"mean_ns"`
		P50NS  int64   `json:"p50_ns"`
		P99NS  int64   `json:"p99_ns"`
	} `json:"virtual_latency"`
	MeanValidPerRead float64 `json:"mean_valid_per_read"`
	// Refresh reports online layout-refresh activity. Generation and Swaps
	// advance even when refreshes are driven externally (through the
	// shared handle) rather than by this server's loop or endpoint.
	Refresh struct {
		Enabled        bool   `json:"enabled"`
		Generation     uint64 `json:"layout_generation"`
		Swaps          int64  `json:"engine_swaps"`
		Refreshes      int64  `json:"refreshes"`
		Errors         int64  `json:"errors"`
		LastDurationNS int64  `json:"last_duration_ns"`
		PendingQueries int64  `json:"pending_queries"`
		// Valid-embeddings-per-read means either side of the most recent
		// swap: Before is frozen at swap time, After accumulates on the
		// live engine. After > Before means the refresh paid off.
		ValidPerReadBefore float64 `json:"valid_per_read_before_swap"`
		ValidPerReadAfter  float64 `json:"valid_per_read_after_swap"`
	} `json:"refresh"`
	// Coalescer reports micro-batching activity; Enabled false (and zero
	// counters) when the server serves every request in isolation.
	Coalescer CoalescerStats `json:"coalescer"`
}

// ShardStatsEntry is one device shard's slice of /v1/stats: its share of
// the read/fault activity plus the highest per-worker queue depth any
// serving worker observed on its queue pair to that shard.
type ShardStatsEntry struct {
	Shard int `json:"shard"`
	// Profile names the shard's device model; Tier is its tier rank
	// (0 = fastest) on a tiered backend, 0 otherwise.
	Profile     string `json:"profile,omitempty"`
	Tier        int    `json:"tier"`
	Reads       int64  `json:"reads"`
	BytesRead   int64  `json:"bytes_read"`
	Errors      int64  `json:"errors"`
	Timeouts    int64  `json:"timeouts"`
	Corruptions int64  `json:"corruptions"`
	QueuePeak   int64  `json:"queue_peak"`
	// Health state machine detail, present when the backend tracks
	// per-shard health (a multi-device array).
	State        string  `json:"state,omitempty"`
	FaultRate    float64 `json:"fault_rate,omitempty"`
	LatentErrors int64   `json:"latent_errors,omitempty"`
}

// TierStatsEntry is one device tier's aggregate slice of /v1/stats.
type TierStatsEntry struct {
	Tier    int    `json:"tier"`
	Profile string `json:"profile"`
	Shards  []int  `json:"shards"`
	// Pages is how many of the current layout's pages live on this tier.
	Pages     int   `json:"pages"`
	Reads     int64 `json:"reads"`
	BytesRead int64 `json:"bytes_read"`
	// ReadShare is this tier's fraction of all backend reads.
	ReadShare float64 `json:"read_share"`
	// RatedBandwidth sums the member shards' rated bandwidth (bytes/s).
	RatedBandwidth float64 `json:"rated_bandwidth"`
}

// ShadowPointEntry is one simulated capacity of the ghost-cache
// miss-rate curve on /v1/stats.
type ShadowPointEntry struct {
	Capacity int     `json:"capacity"`
	Hits     int64   `json:"hits"`
	Accesses int64   `json:"accesses"`
	HitRate  float64 `json:"hit_rate"`
}

// CacheStatsEntry is the DRAM cache's slice of /v1/stats, including
// per-segment occupancy and churn under the segmented policy and the
// pin-set counters.
type CacheStatsEntry struct {
	Hits      int64   `json:"hits"`
	Misses    int64   `json:"misses"`
	Evictions int64   `json:"evictions"`
	HitRate   float64 `json:"hit_rate"`
	Entries   int     `json:"entries"`
	// Segment detail: probation/protected occupancy and eviction split,
	// with promotion/demotion churn (zero protected under plain LRU).
	ProbationEntries   int   `json:"probation_entries"`
	ProtectedEntries   int   `json:"protected_entries"`
	ProbationEvictions int64 `json:"probation_evictions"`
	ProtectedEvictions int64 `json:"protected_evictions"`
	Promotions         int64 `json:"promotions"`
	Demotions          int64 `json:"demotions"`
	// Pin-set detail: permanently resident entries above the LRU.
	PinnedEntries int   `json:"pinned_entries"`
	PinnedHits    int64 `json:"pinned_hits"`
}

// tierStats aggregates the shard entries per device tier of a
// heterogeneous backend, nil when the backend has a single tier. Page
// occupancy comes from the engine's current layout: page p stripes to
// shard p mod n.
func tierStats(be ssd.Backend, eng *serving.Engine, shards []ShardStatsEntry) []TierStatsEntry {
	tr, ok := be.(ssd.TierReporter)
	if !ok || tr.NumTiers() < 2 {
		return nil
	}
	out := make([]TierStatsEntry, tr.NumTiers())
	var totalReads int64
	for t := range out {
		info := tr.Tier(t)
		out[t] = TierStatsEntry{Tier: t, Profile: info.Profile.Name, Shards: info.Shards}
		for _, s := range info.Shards {
			out[t].Reads += shards[s].Reads
			out[t].BytesRead += shards[s].BytesRead
			out[t].RatedBandwidth += be.Shard(s).Profile().Bandwidth
			totalReads += shards[s].Reads
		}
	}
	for p := range eng.Layout().Pages {
		out[tr.TierOf(p%len(shards))].Pages++
	}
	if totalReads > 0 {
		for t := range out {
			out[t].ReadShare = float64(out[t].Reads) / float64(totalReads)
		}
	}
	return out
}

// statsSnapshot is one reading of every counter /v1/stats and /metrics
// report: /v1/stats encodes the embedded StatsResponse, and /metrics
// renders the whole value, including the few counters only it exports.
type statsSnapshot struct {
	StatsResponse
	lookups, scrubUnrepairable int64
	shardStates                []ssd.ShardState          // nil without per-shard health
	readLatency                []ssd.ReadLatencySnapshot // nil unless the backend measures it
	batchSizes                 []int64                   // coalescer dispatches of size 1..maxBatch, then +Inf
}

// snapshot reads every counter behind /v1/stats and /metrics once, from
// one engine generation and its backend.
func (h *Handler) snapshot() *statsSnapshot {
	eng, gen := h.handle.Load()
	be := eng.Backend()
	s := &statsSnapshot{}
	r := &s.StatsResponse

	peaks := eng.ShardQueuePeaks()
	tr, _ := be.(ssd.TierReporter)
	r.Shards = make([]ShardStatsEntry, be.NumShards())
	for i := range r.Shards {
		sh := be.Shard(i)
		ds := sh.Stats()
		e := &r.Shards[i]
		*e = ShardStatsEntry{
			Shard:       i,
			Profile:     sh.Profile().Name,
			Reads:       ds.Reads,
			BytesRead:   ds.BytesRead,
			Errors:      ds.Errors,
			Timeouts:    ds.Timeouts,
			Corruptions: ds.Corruptions,
		}
		if tr != nil {
			e.Tier = tr.TierOf(i)
		}
		if i < len(peaks) {
			e.QueuePeak = peaks[i]
		}
		// A backend's Stats is the sum over its shards; summing the
		// entries keeps the device totals equal to the shards shown.
		r.Device.Reads += ds.Reads
		r.Device.BytesRead += ds.BytesRead
		r.Device.Errors += ds.Errors
		r.Device.Timeouts += ds.Timeouts
		r.Device.Corruptions += ds.Corruptions
	}
	nh := h.nodeHealth(be, func(i int, info ssd.ShardHealthInfo) {
		e := &r.Shards[i]
		e.State, e.FaultRate, e.LatentErrors = info.State.String(), info.FaultRate, info.LatentErrors
		s.shardStates = append(s.shardStates, info.State)
	})
	r.Health.Ready, r.Health.ErrorRate, r.Health.WindowEvents = nh.ready, nh.rate, nh.events
	r.Health.DeadShards, r.Health.LiveErrorRate = nh.deadShards, nh.liveRate
	r.Tiers = tierStats(be, eng, r.Shards)
	r.Coact = h.coactStats(eng)
	if lr, ok := be.(ssd.ReadLatencyReporter); ok {
		s.readLatency = make([]ssd.ReadLatencySnapshot, len(r.Shards))
		for i := range s.readLatency {
			s.readLatency[i] = lr.ShardReadLatency(i)
		}
	}

	// Recovery counters aggregate across engine swaps (retired engines'
	// totals are folded in) so they stay monotonic for pollers.
	rec := h.handle.Totals()
	r.Recovery.ReadErrors = rec.ReadErrors
	r.Recovery.Timeouts = rec.Timeouts
	r.Recovery.Corruptions = rec.Corruptions
	r.Recovery.Retries = rec.Retries
	r.Recovery.ReplicaRescues = rec.ReplicaRescues
	r.Recovery.RecoveredKeys = rec.RecoveredKeys
	r.Recovery.DegradedQueries = rec.DegradedQueries
	r.Recovery.FailedKeys = rec.FailedKeys
	r.Recovery.ShardReroutes = rec.ShardReroutes
	r.Recovery.StoreFallbacks = rec.StoreFallbacks
	s.lookups = rec.Lookups

	r.Scrub.Enabled = h.scrubber != nil
	r.Scrub.Running = h.scrubRunning.Load()
	r.Scrub.Sweeps = h.scrubs.Load()
	r.Scrub.Errors = h.scrubErrors.Load()
	r.Scrub.ProgressPages = h.scrubScanned.Load()
	r.Scrub.ProgressTotal = h.scrubTotal.Load()
	r.Scrub.LatentSlots = h.scrubLatent.Load()
	r.Scrub.RepairedSlots = h.scrubRepaired.Load()
	s.scrubUnrepairable = h.scrubUnrepairable.Load()
	r.Rebuild.Enabled = h.shardAdmin != nil
	r.Rebuild.Running = h.rebuildRunning.Load()
	r.Rebuild.Rebuilds = h.rebuilds.Load()
	r.Rebuild.Errors = h.rebuildErrors.Load()
	r.Rebuild.ProgressPages = h.rebuildCopied.Load()
	r.Rebuild.ProgressTotal = h.rebuildTotal.Load()
	r.Rebuild.LastMTTRNS = h.lastMTTRNS.Load()
	h.adminMu.Lock()
	r.Scrub.Last = h.lastScrub
	r.Rebuild.Last = h.lastRebuild
	h.adminMu.Unlock()

	if c := eng.Cache(); c != nil {
		cs := c.Stats()
		r.Cache = &CacheStatsEntry{
			Hits:               cs.Hits,
			Misses:             cs.Misses,
			Evictions:          cs.Evictions,
			HitRate:            cs.HitRate(),
			Entries:            c.Len(),
			ProbationEntries:   cs.ProbationLen,
			ProtectedEntries:   cs.ProtectedLen,
			ProbationEvictions: cs.ProbationEvictions,
			ProtectedEvictions: cs.ProtectedEvictions,
			Promotions:         cs.Promotions,
			Demotions:          cs.Demotions,
			PinnedEntries:      cs.PinnedEntries,
			PinnedHits:         cs.PinnedHits,
		}
	}
	if sh := eng.Shadow(); sh != nil {
		for _, p := range sh.Curve() {
			r.Shadow = append(r.Shadow, ShadowPointEntry{
				Capacity: p.Capacity, Hits: p.Hits, Accesses: p.Accesses, HitRate: p.HitRate,
			})
		}
	}
	ls := eng.Latency.Snapshot()
	r.Latency.Count = ls.Count
	r.Latency.MeanNS = ls.MeanNS
	r.Latency.P50NS = ls.P50NS
	r.Latency.P99NS = ls.P99NS
	r.MeanValidPerRead = eng.ValidPerRead.Mean()
	r.Refresh.Enabled = h.refreshSrc != nil
	r.Refresh.Generation = gen
	r.Refresh.Swaps = h.handle.Swaps()
	r.Refresh.Refreshes = h.refreshes.Load()
	r.Refresh.Errors = h.refreshErrors.Load()
	r.Refresh.LastDurationNS = h.lastRefreshNS.Load()
	if h.refreshSrc != nil {
		r.Refresh.PendingQueries = h.refreshSrc.PendingQueries()
	}
	r.Refresh.ValidPerReadBefore = h.handle.ValidPerReadBefore()
	r.Refresh.ValidPerReadAfter = r.MeanValidPerRead
	if h.coal != nil {
		var sizes metrics.IntHistSnapshot
		r.Coalescer, sizes = h.coal.stats()
		// Sizes start at 1: no dispatch is empty.
		s.batchSizes = append(sizes.Counts[1:], sizes.Overflow)
	}
	return s
}

func (h *Handler) stats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, h.snapshot().StatsResponse)
}

// metrics renders the same snapshot /v1/stats serves in Prometheus text
// exposition format for scrape-based monitoring.
func (h *Handler) metrics(w http.ResponseWriter, _ *http.Request) {
	s := h.snapshot()
	r := &s.StatsResponse
	var p promText
	p.scalar("maxembed_device_reads_total", "counter", r.Device.Reads)
	p.scalar("maxembed_device_bytes_read_total", "counter", r.Device.BytesRead)
	p.scalar("maxembed_device_errors_total", "counter", r.Device.Errors)
	p.scalar("maxembed_device_timeouts_total", "counter", r.Device.Timeouts)
	p.scalar("maxembed_device_corruptions_total", "counter", r.Device.Corruptions)
	n := len(r.Shards)
	shard := func(i int) string { return fmt.Sprintf(`shard="%d"`, i) }
	p.perLabel("maxembed_shard_reads_total", "counter", n, shard, func(i int) any { return r.Shards[i].Reads })
	p.perLabel("maxembed_shard_errors_total", "counter", n, shard, func(i int) any { return r.Shards[i].Errors })
	p.perLabel("maxembed_shard_timeouts_total", "counter", n, shard, func(i int) any { return r.Shards[i].Timeouts })
	p.perLabel("maxembed_shard_corruptions_total", "counter", n, shard, func(i int) any { return r.Shards[i].Corruptions })
	p.perLabel("maxembed_shard_queue_peak", "gauge", n, shard, func(i int) any { return r.Shards[i].QueuePeak })
	if t := r.Tiers; t != nil {
		tier := func(i int) string { return fmt.Sprintf(`tier="%d",profile=%q`, t[i].Tier, t[i].Profile) }
		p.perLabel("maxembed_tier_reads_total", "counter", len(t), tier, func(i int) any { return t[i].Reads })
		p.perLabel("maxembed_tier_bytes_read_total", "counter", len(t), tier, func(i int) any { return t[i].BytesRead })
		p.perLabel("maxembed_tier_pages", "gauge", len(t), tier, func(i int) any { return t[i].Pages })
		p.perLabel("maxembed_tier_read_share", "gauge", len(t), tier, func(i int) any { return t[i].ReadShare })
	}
	if c := r.Coact; c != nil {
		p.scalar("maxembed_coact_mean_max_shard_depth", "gauge", c.MeanMaxShardDepth)
		p.scalar("maxembed_coact_depth_queries", "gauge", c.Queries)
		if pl := c.Placement; pl != nil {
			p.scalar("maxembed_coact_moved_pages", "gauge", pl.MovedPages)
			p.scalar("maxembed_coact_edges_scored", "gauge", pl.EdgesScored)
			p.scalar("maxembed_coact_mean_depth_before", "gauge", pl.MeanDepthBefore)
			p.scalar("maxembed_coact_mean_depth_after", "gauge", pl.MeanDepthAfter)
			p.scalar("maxembed_coact_replica_collisions", "gauge", pl.ReplicaCollisionsAfter)
			p.scalar("maxembed_coact_uncovered_keys", "gauge", pl.UncoveredKeysAfter)
		}
	}
	if s.readLatency != nil {
		// Measured (wall-clock) per-shard read latency of a real-I/O backend.
		const name = "maxembed_backend_read_latency_seconds"
		p.family(name, "histogram")
		for i, l := range s.readLatency {
			p.histogram(name, shard(i), l.Counts,
				func(b int) string { return fmt.Sprintf("%g", float64(l.UpperNS[b])/1e9) },
				float64(l.SumNS)/1e9)
		}
	}
	if s.shardStates != nil {
		// Shard state machine position: 0 healthy, 1 suspect, 2 failed,
		// 3 rebuilding.
		p.perLabel("maxembed_shard_state", "gauge", n, shard, func(i int) any { return int(s.shardStates[i]) })
		p.perLabel("maxembed_shard_fault_rate", "gauge", n, shard, func(i int) any { return r.Shards[i].FaultRate })
		p.perLabel("maxembed_shard_latent_errors_total", "counter", n, shard, func(i int) any { return r.Shards[i].LatentErrors })
	}
	rec := &r.Recovery
	p.scalar("maxembed_read_errors_total", "counter", rec.ReadErrors)
	p.scalar("maxembed_corruptions_detected_total", "counter", rec.Corruptions)
	p.scalar("maxembed_read_retries_total", "counter", rec.Retries)
	p.scalar("maxembed_replica_rescues_total", "counter", rec.ReplicaRescues)
	p.scalar("maxembed_recovered_keys_total", "counter", rec.RecoveredKeys)
	p.scalar("maxembed_degraded_queries_total", "counter", rec.DegradedQueries)
	p.scalar("maxembed_failed_keys_total", "counter", rec.FailedKeys)
	p.scalar("maxembed_shard_reroutes_total", "counter", rec.ShardReroutes)
	p.scalar("maxembed_store_fallbacks_total", "counter", rec.StoreFallbacks)
	p.scalar("maxembed_read_error_rate", "gauge", r.Health.ErrorRate)
	p.scalar("maxembed_ready", "gauge", b2i(r.Health.Ready))
	if s.shardStates != nil {
		p.scalar("maxembed_dead_shards", "gauge", r.Health.DeadShards)
		p.scalar("maxembed_live_error_rate", "gauge", r.Health.LiveErrorRate)
	}
	p.scalar("maxembed_scrub_sweeps_total", "counter", r.Scrub.Sweeps)
	p.scalar("maxembed_scrub_errors_total", "counter", r.Scrub.Errors)
	p.scalar("maxembed_scrub_running", "gauge", b2i(r.Scrub.Running))
	p.scalar("maxembed_scrub_pages_scanned", "gauge", r.Scrub.ProgressPages)
	p.scalar("maxembed_scrub_latent_slots_total", "counter", r.Scrub.LatentSlots)
	p.scalar("maxembed_scrub_repaired_slots_total", "counter", r.Scrub.RepairedSlots)
	p.scalar("maxembed_scrub_unrepairable_slots_total", "counter", s.scrubUnrepairable)
	p.scalar("maxembed_rebuild_total", "counter", r.Rebuild.Rebuilds)
	p.scalar("maxembed_rebuild_errors_total", "counter", r.Rebuild.Errors)
	p.scalar("maxembed_rebuild_running", "gauge", b2i(r.Rebuild.Running))
	p.scalar("maxembed_rebuild_pages_copied", "gauge", r.Rebuild.ProgressPages)
	p.scalar("maxembed_rebuild_last_mttr_ns", "gauge", r.Rebuild.LastMTTRNS)
	if c := r.Cache; c != nil {
		p.scalar("maxembed_cache_hits_total", "counter", c.Hits)
		p.scalar("maxembed_cache_misses_total", "counter", c.Misses)
		p.scalar("maxembed_cache_entries", "gauge", c.Entries)
		p.scalar("maxembed_cache_probation_entries", "gauge", c.ProbationEntries)
		p.scalar("maxembed_cache_protected_entries", "gauge", c.ProtectedEntries)
		p.scalar("maxembed_cache_probation_evictions_total", "counter", c.ProbationEvictions)
		p.scalar("maxembed_cache_protected_evictions_total", "counter", c.ProtectedEvictions)
		p.scalar("maxembed_cache_promotions_total", "counter", c.Promotions)
		p.scalar("maxembed_cache_demotions_total", "counter", c.Demotions)
		p.scalar("maxembed_cache_pinned_entries", "gauge", c.PinnedEntries)
		p.scalar("maxembed_cache_pinned_hits_total", "counter", c.PinnedHits)
	}
	p.scalar("maxembed_lookups_total", "counter", s.lookups)
	p.scalar("maxembed_lookup_latency_p99_ns", "gauge", r.Latency.P99NS)
	p.scalar("maxembed_valid_per_read", "gauge", r.MeanValidPerRead)
	p.scalar("maxembed_layout_generation", "gauge", r.Refresh.Generation)
	p.scalar("maxembed_engine_swaps_total", "counter", r.Refresh.Swaps)
	p.scalar("maxembed_refresh_total", "counter", r.Refresh.Refreshes)
	p.scalar("maxembed_refresh_errors_total", "counter", r.Refresh.Errors)
	p.scalar("maxembed_refresh_duration_seconds", "gauge", float64(r.Refresh.LastDurationNS)/1e9)
	p.scalar("maxembed_valid_per_read_before_swap", "gauge", r.Refresh.ValidPerReadBefore)
	if s.batchSizes != nil {
		c := &r.Coalescer
		p.scalar("maxembed_coalesce_batches_total", "counter", c.Batches)
		p.scalar("maxembed_coalesce_bypass_total", "counter", c.Bypasses)
		p.scalar("maxembed_coalesce_requests_total", "counter", c.Coalesced)
		p.scalar("maxembed_coalesce_shed_total", "counter", c.Shed)
		p.scalar("maxembed_coalesce_batch_size_mean", "gauge", c.MeanBatchSize)
		p.scalar("maxembed_coalesce_wait_p99_ns", "gauge", c.WaitP99NS)
		const name = "maxembed_coalesce_batch_size"
		p.family(name, "histogram")
		p.histogram(name, "", s.batchSizes, func(b int) string { return strconv.Itoa(b + 1) }, nil)
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	w.Write(p.b)
}

// health is a real readiness probe: it reports 503 while the node is
// unhealthy, so load balancers rotate the instance out until it clears.
// With a multi-shard backend the verdict is shard-aware — a minority of
// dead shards (the engine routes around them) does not flip the node —
// and the body carries per-shard fault fractions beside the global
// window so an operator can tell a sick drive from a sick node.
func (h *Handler) health(w http.ResponseWriter, _ *http.Request) {
	var infos []ssd.ShardHealthInfo
	nh := h.nodeHealth(h.curBackend(), func(_ int, info ssd.ShardHealthInfo) {
		infos = append(infos, info)
	})
	if nh.ready && !nh.perShard {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
		return
	}
	status, body := http.StatusOK, map[string]any{
		"status":        "ok",
		"error_rate":    nh.rate,
		"window_events": nh.events,
	}
	if !nh.ready {
		w.Header().Set("Retry-After", fmt.Sprint(h.retryAfterSec))
		status, body["status"] = http.StatusServiceUnavailable, "unhealthy"
	}
	if nh.perShard {
		body["shards"] = shardHealthEntries(infos)
		body["dead_shards"] = nh.deadShards
		body["live_error_rate"] = nh.liveRate
	}
	writeJSONStatus(w, status, body)
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

func writeJSON(w http.ResponseWriter, v any) {
	writeJSONStatus(w, http.StatusOK, v)
}

func writeJSONStatus(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// Headers are already out; nothing recoverable.
		return
	}
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

// promText accumulates a Prometheus text-format (0.0.4) exposition.
// Sample values print with %v: integers as %d, floats as %g.
type promText struct{ b []byte }

func (p *promText) family(name, kind string) {
	p.b = fmt.Appendf(p.b, "# TYPE %s %s\n", name, kind)
}

// scalar writes a family with one unlabelled sample.
func (p *promText) scalar(name, kind string, v any) {
	p.b = fmt.Appendf(p.b, "# TYPE %s %s\n%s %v\n", name, kind, name, v)
}

// perLabel writes a family with samples v(i) labelled label(i), i < n.
func (p *promText) perLabel(name, kind string, n int, label func(int) string, v func(int) any) {
	p.family(name, kind)
	for i := 0; i < n; i++ {
		p.b = fmt.Appendf(p.b, "%s{%s} %v\n", name, label(i), v(i))
	}
}

// histogram writes one series of a histogram family: cumulative buckets
// bounded by le(i) for every counts[i] but the last, the unbounded one;
// the _sum unless sum is nil; and the _count. The +Inf bucket and the
// _count are both the sum of counts, so they agree with the buckets even
// when the source's own total was read at another instant.
func (p *promText) histogram(name, labels string, counts []int64, le func(int) string, sum any) {
	series := ""
	if labels != "" {
		series, labels = "{"+labels+"}", labels+","
	}
	var cum int64
	for i, c := range counts {
		cum += c
		bound := "+Inf"
		if i < len(counts)-1 {
			bound = le(i)
		}
		p.b = fmt.Appendf(p.b, "%s_bucket{%sle=%q} %d\n", name, labels, bound, cum)
	}
	if sum != nil {
		p.b = fmt.Appendf(p.b, "%s_sum%s %v\n", name, series, sum)
	}
	p.b = fmt.Appendf(p.b, "%s_count%s %d\n", name, series, cum)
}
