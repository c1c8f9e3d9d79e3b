package main

import (
	"fmt"
	"net/http"
	"runtime"
	"time"

	"maxembed/internal/cache"
	"maxembed/internal/embedding"
	"maxembed/internal/hypergraph"
	"maxembed/internal/layout"
	"maxembed/internal/placement"
	"maxembed/internal/selection"
	"maxembed/internal/server"
	"maxembed/internal/serving"
	"maxembed/internal/ssd"
	"maxembed/internal/store"
)

// replayQueries bounds how many held-out queries each layer replay runs.
const replayQueries = 2000

// httpLayers derives the server-layer metrics of an HTTP workload from
// the untraced and traced open loops and the server's /v1/stats, then
// runs the in-process layer replays on a stack built like the server's.
func (b *bench) httpLayers(in *inputs, st server.StatsResponse, warm, recs, traced []reqRecord, refreshes []refreshRun) error {
	var reqUS samples
	for _, s := range b.tr.all() {
		if s.Name == "server.request" {
			reqUS = append(reqUS, float64(s.End-s.Start)/1e3)
		}
	}
	b.m.set("server.request_us.p50", reqUS.quantile(0.5))
	b.m.set("server.request_us.p99", reqUS.quantile(0.99))
	b.setRequestSelf()

	var lag, connWait, untracedSend, tracedSend samples
	respBytes, partial := 0, 0
	for i := range recs {
		r := &recs[i]
		lag.add(r.dispatched - r.due)
		connWait.add(r.picked - r.dispatched)
		untracedSend.add(r.fromSend())
		respBytes += r.respBytes
		if r.status == http.StatusPartialContent {
			partial++
		}
	}
	for i := range traced {
		tracedSend.add(traced[i].fromSend())
	}
	n := float64(len(recs))
	b.m.set("bench.gen_lag_us.p50", lag.quantile(0.5))
	b.m.set("bench.gen_lag_us.p99", lag.quantile(0.99))
	b.m.set("bench.conn_wait_us.p50", connWait.quantile(0.5))
	u := untracedSend.quantile(0.5)
	b.m.set("bench.trace_overhead_frac", ratio(tracedSend.quantile(0.5)-u, u))
	b.m.set("server.resp_bytes_per_lookup", float64(respBytes)/n)
	b.m.set("server.partial_frac", float64(partial)/n)

	c := st.Coalescer
	b.m.set("server.coalesce_batch_mean", c.MeanBatchSize)
	b.m.set("server.coalesce_wait_us.p50", float64(c.WaitP50NS)/1e3)
	b.m.set("server.coalesce_wait_us.p99", float64(c.WaitP99NS)/1e3)
	b.m.set("server.coalesce_bypass_frac", ratio(float64(c.Bypasses), c.MeanBatchSize*float64(c.Batches)))
	b.m.set("server.shed_frac", ratio(float64(c.Shed), float64(b.attempted)))

	hitFrac, evictions := 0.0, 0.0
	if st.Cache != nil {
		hitFrac = ratio(float64(st.Cache.Hits), float64(st.Cache.Hits+st.Cache.Misses))
		evictions = float64(st.Cache.Evictions)
	}
	b.m.set("cache.hit_frac", hitFrac)
	b.m.set("cache.evictions_per_lookup", evictions/float64(b.attempted))

	reads := make([]int64, len(st.Shards))
	peak := int64(0)
	for i, sh := range st.Shards {
		reads[i] = sh.Reads
		peak = max(peak, sh.QueuePeak)
	}
	b.m.set("ssd.reads_per_lookup", float64(st.Device.Reads)/float64(b.attempted))
	b.m.set("ssd.shard_skew", skew(reads))
	b.m.set("ssd.queue_peak", float64(peak))
	b.m.set("ssd.eff_bw_mbps", float64(st.Device.Reads)*st.MeanValidPerRead*
		float64(embedding.BytesPerVector(embDim))/b.trafficWall.Seconds()/1e6)
	b.m.set("ssd.read_us.p50", 0) // simulated device: no wall-clock reads
	b.m.set("ssd.read_us.p99", 0)

	// The layer replays run on a stack built like the server's.
	stk, err := b.buildStack(in, "", true)
	if err != nil {
		return err
	}
	if err := b.refreshLayers(stk.lay, warm, recs, refreshes, st); err != nil {
		return err
	}
	batch := int(c.MeanBatchSize + 0.5)
	return b.layerReplays(stk, in, max(batch, 1))
}

// setRequestSelf reports the median self time of the traced lookups'
// root spans: the part of a lookup no child span (generator, connection
// wait, server, engine, output check) accounts for.
func (b *bench) setRequestSelf() {
	spans := b.tr.all()
	self := selfTimes(spans)
	var rootSelf samples
	for _, s := range spans {
		if s.Name == "lookup" {
			rootSelf = append(rootSelf, float64(self[s.ID])/1e3)
		}
	}
	b.m.set("bench.request_self_us.p50", rootSelf.quantile(0.5))
}

// setHeapInuse reports the benchmark process's in-use heap once the
// serving stack is built.
func (b *bench) setHeapInuse() {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	b.m.set("mem.heap_inuse_mb", float64(ms.HeapInuse)/(1<<20))
}

// refreshLayers reports the refresh-m2 write path: each refresh's wall
// time, the slowest lookup sent around a swap, valid embeddings per read
// either side of the last swap, and the refresh's placement step
// replayed in process on the history the server had recorded.
func (b *bench) refreshLayers(lay *layout.Layout, warm, recs []reqRecord, refreshes []refreshRun, st server.StatsResponse) error {
	names := []string{"refresh.request_s", "refresh.swap_gap_us", "refresh.placement_s",
		"refresh.emb_per_read_before", "refresh.emb_per_read_after"}
	if len(refreshes) == 0 {
		for _, n := range names {
			b.m.set(n, 0)
		}
		return nil
	}
	var durs []float64
	gap := time.Duration(0)
	for _, r := range refreshes {
		durs = append(durs, (r.end - r.start).Seconds())
		for i := range recs {
			if s := recs[i].sent; s >= r.start && s <= r.end+50*time.Millisecond {
				gap = max(gap, recs[i].fromSend())
			}
		}
	}
	b.m.set("refresh.request_s", median(durs))
	b.m.set("refresh.swap_gap_us", float64(gap.Microseconds()))
	b.m.set("refresh.emb_per_read_before", st.Refresh.ValidPerReadBefore)
	b.m.set("refresh.emb_per_read_after", st.Refresh.ValidPerReadAfter)

	// The history the server held at the first refresh: the warm-up and
	// the open-loop queries sent before it, up to the recorder's window.
	var hist [][]uint32
	for i := range warm {
		hist = append(hist, warm[i].query)
	}
	for i := range recs {
		if recs[i].sent < refreshes[0].start {
			hist = append(hist, recs[i].query)
		}
	}
	if len(hist) > recordLast {
		hist = hist[len(hist)-recordLast:]
	}
	t0 := time.Now()
	g, err := hypergraph.FromQueries(lay.NumKeys, hist)
	if err != nil {
		return err
	}
	assign := make([]int32, lay.NumKeys)
	for k, p := range lay.Home {
		assign[k] = int32(p)
	}
	if _, err := placement.Replicate(g, assign, placement.Options{
		Capacity: lay.Capacity, ReplicationRatio: b.wl.ratio, Seed: dbSeed, Shards: b.wl.devices,
	}); err != nil {
		return err
	}
	b.m.set("refresh.placement_s", time.Since(t0).Seconds())
	return nil
}

// skew is max over mean of per-shard counts (1 = perfectly even).
func skew(xs []int64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum, top int64
	for _, x := range xs {
		sum += x
		top = max(top, x)
	}
	return ratio(float64(top), float64(sum)/float64(len(xs)))
}

// layerReplays replays held-out queries through each layer's public
// entry points in process, with a span around every call: selection,
// the worker lookup path, the cache, the SSD queue pair and the store's
// slot extraction. Spans of one query share its index as request id.
// It also reports the stack's set-up steps.
func (b *bench) layerReplays(st *stack, in *inputs, batch int) error {
	for name, d := range st.steps {
		b.m.set(name, d.Seconds())
	}
	queries := in.eval
	if len(queries) > replayQueries {
		queries = queries[:replayQueries]
	}
	spans := b.tr.buf()
	plans, err := b.selectionReplay(st.eng.Index(), queries, spans)
	if err != nil {
		return err
	}
	if err := b.workerReplay(st.eng, queries, batch, spans); err != nil {
		return err
	}
	b.cacheReplay(st.eng, in, queries)
	if err := b.queuePairReplay(st.be, plans, spans); err != nil {
		return err
	}
	return b.storeReplay(st.src, st.lay, queries, plans, spans)
}

// selectionReplay runs Selector.OnePass over the queries against the
// engine's index and returns each query's page plan.
func (b *bench) selectionReplay(idx *selection.Index, queries [][]uint32, spans *spanBuf) ([][]layout.PageID, error) {
	sel := selection.NewSelector(idx)
	plans := make([][]layout.PageID, len(queries))
	var plan []layout.PageID
	collect := func(p layout.PageID, _ []layout.Key, _ selection.Stats) { plan = append(plan, p) }
	var lat samples
	var pages, cands, scans int
	for i, q := range queries {
		plan = nil
		t0 := time.Now()
		st, err := sel.OnePass(q, nil, collect)
		t1 := time.Now()
		if err != nil {
			return nil, err
		}
		spans.add("selection.onepass", 0, int64(i), t0, t1)
		lat.add(t1.Sub(t0))
		plans[i] = plan
		pages += st.Pages
		cands += st.CandidatePages
		scans += st.InvertScans
	}
	noop := func(layout.PageID, []layout.Key, selection.Stats) {}
	allocs, _ := allocsDuring(func() {
		for _, q := range queries {
			_, _ = sel.OnePass(q, nil, noop) // errors surfaced by the timed pass
		}
	})
	n := float64(len(queries))
	b.m.set("selection.onepass_us.p50", lat.quantile(0.5))
	b.m.set("selection.onepass_us.p99", lat.quantile(0.99))
	b.m.set("selection.allocs_per_call", allocs/n)
	b.m.set("selection.pages_per_query", float64(pages)/n)
	b.m.set("selection.candidate_pages_per_query", float64(cands)/n)
	b.m.set("selection.invert_scans_per_query", float64(scans)/n)
	return plans, nil
}

// allocsDuring returns the heap allocations and bytes fn performs.
func allocsDuring(fn func()) (allocs, bytes float64) {
	var a, z runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&z)
	return float64(z.Mallocs - a.Mallocs), float64(z.TotalAlloc - a.TotalAlloc)
}

// workerReplay times Worker.Lookup (what Session.Lookup runs) per query,
// checking every result, reads the per-query stats, measures allocations
// on a second pass and times LookupBatch at the given batch size.
func (b *bench) workerReplay(eng *serving.Engine, queries [][]uint32, batch int, spans *spanBuf) error {
	sess := eng.NewWorker()
	marks := b.chk.newMarks()
	var lat samples
	var pages, hits, distinct, depth, retries, failed int
	for i, q := range queries {
		t0 := time.Now()
		res, err := sess.Lookup(q)
		t1 := time.Now()
		if err != nil {
			return err
		}
		spans.add("serving.lookup", 0, int64(i), t0, t1)
		lat.add(t1.Sub(t0))
		if _, err := b.chk.checkResult(marks, q, &res); err != nil {
			b.chk.note(fmt.Errorf("session replay query %d: %w", i, err))
		}
		s := res.Stats
		pages += s.PagesRead
		hits += s.CacheHits
		distinct += s.DistinctKeys
		depth += s.MaxShardDepth
		retries += s.Retries
		failed += s.FailedKeys
	}
	allocs, bytes := allocsDuring(func() {
		for _, q := range queries {
			_, _ = sess.Lookup(q) // errors surfaced by the timed pass
		}
	})
	var blat samples
	for i := 0; i+batch <= len(queries); i += batch {
		t0 := time.Now()
		if _, err := sess.LookupBatch(queries[i : i+batch]); err != nil {
			return err
		}
		blat.add(time.Since(t0))
	}
	n := float64(len(queries))
	b.m.set("serving.lookup_us.p50", lat.quantile(0.5))
	b.m.set("serving.lookup_us.p99", lat.quantile(0.99))
	b.m.set("serving.batch_us.p50", blat.quantile(0.5))
	b.m.set("serving.allocs_per_lookup", allocs/n)
	b.m.set("serving.bytes_per_lookup", bytes/n)
	b.m.set("serving.pages_per_lookup", float64(pages)/n)
	b.m.set("serving.cache_hit_frac", ratio(float64(hits), float64(distinct)))
	b.m.set("serving.max_shard_depth_mean", float64(depth)/n)
	b.m.set("serving.retries_per_lookup", float64(retries)/n)
	b.m.set("serving.failed_keys", float64(failed))
	return nil
}

// cacheReplay replays the queries' distinct-key stream on a fresh cache
// of the engine's capacity (10% of keys when the engine has none): a Get
// per key and a Put per miss, timed in blocks.
func (b *bench) cacheReplay(eng *serving.Engine, in *inputs, queries [][]uint32) {
	capacity := in.items / 10
	if eng.Cache() != nil {
		capacity = int(b.wl.cacheRatio * float64(in.items))
	}
	c := cache.New[uint32, []float32](capacity, cache.Uint32Hasher)
	marks := b.chk.newMarks()
	var stream []uint32
	for _, q := range queries {
		marks.begin(q)
		for _, k := range q {
			if marks.take(k) {
				stream = append(stream, k)
			}
		}
	}
	vec := make([]float32, embDim)
	const block = 256
	hit := make([]bool, block)
	var getNS, putNS time.Duration
	puts := 0
	var allocs float64
	for lo := 0; lo < len(stream); lo += block {
		keys := stream[lo:min(lo+block, len(stream))]
		t0 := time.Now()
		for i, k := range keys {
			_, hit[i] = c.Get(k)
		}
		getNS += time.Since(t0)
		a, _ := allocsDuring(func() {
			t1 := time.Now()
			for i, k := range keys {
				if !hit[i] {
					c.Put(k, vec)
					puts++
				}
			}
			putNS += time.Since(t1)
		})
		allocs += a
	}
	b.m.set("cache.get_ns", float64(getNS.Nanoseconds())/float64(len(stream)))
	b.m.set("cache.put_ns", ratio(float64(putNS.Nanoseconds()), float64(puts)))
	b.m.set("cache.allocs_per_put", ratio(allocs, float64(puts)))
}

// queuePairReplay submits each query's page plan through a fresh queue
// pair on the DB's backend and drains it, timing each plan: real reads on
// the file backend, the device model's bookkeeping on a simulated one.
func (b *bench) queuePairReplay(be ssd.Backend, plans [][]layout.PageID, spans *spanBuf) error {
	qp := ssd.NewQueuePairFor(be)
	var lat samples
	now := int64(0)
	for i, plan := range plans {
		if len(plan) == 0 {
			continue
		}
		t0 := time.Now()
		for _, p := range plan {
			now = qp.Submit(p, now)
		}
		done, comps := qp.Drain(now)
		t1 := time.Now()
		for _, c := range comps {
			if c.Err != nil {
				return fmt.Errorf("queue-pair replay: page %d: %w", c.Page, c.Err)
			}
			if c.Buf != nil {
				c.Buf.Release()
			}
		}
		now = done
		spans.add("ssd.plan", 0, int64(i), t0, t1)
		lat.add(t1.Sub(t0))
	}
	b.m.set("ssd.qp_read_us.p50", lat.quantile(0.5))
	return nil
}

// storeReplay extracts every key each plan's pages cover from the page
// images with store.ExtractFromImage, timing the extraction per key.
func (b *bench) storeReplay(src serving.PageSource, lay *layout.Layout, queries [][]uint32, plans [][]layout.PageID, spans *spanBuf) error {
	page := func(p layout.PageID) ([]byte, error) {
		if sh, ok := src.(*store.Sharded); ok {
			n := layout.PageID(sh.NumShards())
			return sh.Shard(int(p % n)).Page(p / n)
		}
		return src.(*store.Store).Page(p)
	}
	marks := b.chk.newMarks()
	var dst []float32
	var total time.Duration
	keys := 0
	for i, plan := range plans {
		marks.begin(queries[i])
		t0 := time.Now()
		for _, p := range plan {
			img, err := page(p)
			if err != nil {
				return err
			}
			for _, k := range lay.Pages[p] {
				if !marks.take(k) {
					continue // not in this query, or already extracted
				}
				var found bool
				dst, found, err = store.ExtractFromImage(img, embDim, k, len(lay.Pages[p]), dst[:0])
				if err != nil || !found {
					return fmt.Errorf("store replay: key %d on page %d: found=%v err=%v", k, p, found, err)
				}
				keys++
			}
		}
		t1 := time.Now()
		total += t1.Sub(t0)
		spans.add("store.extract", 0, int64(i), t0, t1)
	}
	b.m.set("store.extract_ns_per_key", ratio(float64(total.Nanoseconds()), float64(keys)))
	return nil
}
