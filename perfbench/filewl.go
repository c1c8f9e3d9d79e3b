package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"maxembed/internal/serving"
	"maxembed/internal/ssd"
)

// runFile drives file-ifashion: the engine serves from shard files
// through the real asynchronous I/O backend, and one in-process caller
// per CPU runs its own worker in a closed loop.
func (b *bench) runFile(ctx context.Context) error {
	b.meta = newMeta(b.wl.name, b.seed)
	in, err := b.genInputs()
	if err != nil {
		return err
	}

	// Set-up: from the generated trace to an engine serving from its
	// files. All but the last build are closed; the last serves.
	var setups []float64
	var st *stack
	for i := 0; i < setupReps; i++ {
		dir := filepath.Join(b.out, fmt.Sprintf("shards-%d", i))
		runtime.GC()
		if st, err = b.buildStack(in, dir, b.trace && i == setupReps-1); err != nil {
			return err
		}
		setups = append(setups, st.total().Seconds())
		if i < setupReps-1 {
			if err := errors.Join(st.close(), os.RemoveAll(dir)); err != nil {
				return err
			}
		}
	}
	defer st.close()
	b.m.set("setup_s", median(setups))
	fb := st.be.(*ssd.FileBackend)
	b.meta.Executor = fb.ExecutorKind()
	b.meta.DirectIO = fb.Direct()
	b.meta.ShardFS = fsType(b.out)
	b.setHeapInuse()

	// Virtual-clock replay of the same layout and store on the simulated
	// array, before any wall-clock traffic.
	simBe, err := simBackend(b.wl.devices)
	if err != nil {
		return err
	}
	sim, err := serving.New(b.engineConfig(st.lay, st.src, simBe))
	if err != nil {
		return err
	}
	if err := b.vclock(sim, simBe, st.lay, in.eval); err != nil {
		return err
	}

	warm := b.closedFile(ctx, st.eng, in.eval, time.Second, false)
	b.tallyFile(warm)
	dur := b.dur
	if b.trace {
		dur /= 2 // the traced pass repeats it
	}
	cpu0, err := processCPU()
	if err != nil {
		return err
	}
	rssMon := watchRSS(os.Getpid())
	run := b.closedFile(ctx, st.eng, in.eval, dur, false)
	rss, rssErr := rssMon.stop()
	cpu1, err := processCPU()
	if err := errors.Join(err, rssErr); err != nil {
		return err
	}
	b.tallyFile(run)
	var traced *fileRun
	if b.trace {
		traced = b.closedFile(ctx, st.eng, in.eval, dur, true)
		b.tallyFile(traced)
	}
	pages := warm.pages + run.pages
	if traced != nil {
		pages += traced.pages
	}
	if reads := fb.Stats().Reads; reads != pages {
		b.chk.note(fmt.Errorf("lookups report %d page reads, file backend counted %d", pages, reads))
	}

	n := float64(run.lookups)
	b.m.set("lookup_p50_us", run.lat.windowQuantile(0.5))
	b.m.set("lookup_p90_us", run.lat.windowQuantile(0.9))
	b.m.set("lookup_p99_us", run.lat.windowQuantile(0.99))
	b.m.set("cpu_us_per_lookup", (cpu1-cpu0)*1e6/n)
	b.m.set("closed_qps", windowRate(run.done, run.elapsed, time.Second))
	b.m.set("rss_mb", rss)
	if !b.trace {
		return nil
	}

	u := run.lat.quantile(0.5)
	b.m.set("bench.trace_overhead_frac", ratio(traced.lat.quantile(0.5)-u, u))
	b.setRequestSelf()
	// No HTTP layer, generator or cache on this workload, and the file
	// backend does not support refresh (its files would go stale).
	for _, name := range []string{
		"server.request_us.p50", "server.request_us.p99", "server.resp_bytes_per_lookup",
		"server.coalesce_batch_mean", "server.coalesce_wait_us.p50", "server.coalesce_wait_us.p99",
		"server.coalesce_bypass_frac", "server.shed_frac", "server.partial_frac",
		"bench.gen_lag_us.p50", "bench.gen_lag_us.p99", "bench.conn_wait_us.p50",
		"cache.hit_frac", "cache.evictions_per_lookup",
		"refresh.request_s", "refresh.swap_gap_us", "refresh.placement_s",
		"refresh.emb_per_read_before", "refresh.emb_per_read_after",
	} {
		b.m.set(name, 0)
	}

	var lat ssd.ReadLatencySnapshot
	shardStats := fb.ShardStats()
	reads := make([]int64, len(shardStats))
	for i := range reads {
		lat = mergeLatency(lat, fb.ShardReadLatency(i))
		reads[i] = shardStats[i].Reads
	}
	peak := int64(0)
	for _, p := range st.eng.ShardQueuePeaks() {
		peak = max(peak, p)
	}
	b.m.set("ssd.read_us.p50", latencyQuantile(lat, 0.5)/1e3)
	b.m.set("ssd.read_us.p99", latencyQuantile(lat, 0.99)/1e3)
	b.m.set("ssd.reads_per_lookup", float64(run.pages)/n)
	b.m.set("ssd.shard_skew", skew(reads))
	b.m.set("ssd.queue_peak", float64(peak))
	b.m.set("ssd.eff_bw_mbps", float64(run.useful)*float64(4*embDim)/run.elapsed.Seconds()/1e6)
	return b.layerReplays(st, in, 1)
}

// fileRun is one closed-loop phase of in-process lookups.
type fileRun struct {
	lat                            samples // per call, in start order
	start, done                    []time.Duration
	lookups, pages, useful, failed int64
	elapsed                        time.Duration
}

// closedFile runs one worker per CPU, each looking up the queries in
// turn from its own offset until dur has passed, and checks every
// result. With traced set it records a span per lookup and per check.
func (b *bench) closedFile(ctx context.Context, eng *serving.Engine, queries [][]uint32, dur time.Duration, traced bool) *fileRun {
	runs := make([]fileRun, b.conns)
	var wg sync.WaitGroup
	start := time.Now()
	for ci := range runs {
		var spans *spanBuf
		if traced {
			spans = b.tr.buf()
		}
		wg.Add(1)
		go func(r *fileRun, ci int) {
			defer wg.Done()
			w := eng.NewWorker()
			marks := b.chk.newMarks()
			for i := ci * len(queries) / b.conns; time.Since(start) < dur && ctx.Err() == nil; i++ {
				q := queries[i%len(queries)]
				t0 := time.Now()
				res, err := w.Lookup(q)
				t1 := time.Now()
				r.start = append(r.start, t0.Sub(start))
				r.done = append(r.done, t1.Sub(start))
				r.lookups++
				if err != nil {
					r.failed++
					continue
				}
				failed, err := b.chk.checkResult(marks, q, &res)
				if spans != nil {
					checked := time.Now()
					root := spans.add("lookup", 0, int64(i), t0, checked)
					spans.add("serving.lookup", root, int64(i), t0, t1)
					spans.add("bench.verify", root, int64(i), t1, checked)
				}
				if err != nil {
					b.chk.note(fmt.Errorf("query %d: %w", i%len(queries), err))
				}
				if failed > 0 {
					r.failed++
				}
				r.pages += int64(res.Stats.PagesRead)
				r.useful += int64(res.Stats.UsefulFromSSD)
			}
		}(&runs[ci], ci)
	}
	wg.Wait()
	out := &fileRun{elapsed: time.Since(start)}
	for _, r := range runs {
		out.start = append(out.start, r.start...)
		out.done = append(out.done, r.done...)
		out.lookups += r.lookups
		out.pages += r.pages
		out.useful += r.useful
		out.failed += r.failed
	}
	order := make([]int, len(out.start))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool { return out.start[order[i]] < out.start[order[j]] })
	for _, i := range order {
		out.lat.add(out.done[i] - out.start[i])
	}
	return out
}

func (b *bench) tallyFile(r *fileRun) {
	b.attempted += r.lookups
	b.failed += r.failed
}

// processCPU returns this process's user+system CPU seconds.
func processCPU() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9, nil
}

// mergeLatency adds one shard's read-latency histogram to acc.
func mergeLatency(acc, s ssd.ReadLatencySnapshot) ssd.ReadLatencySnapshot {
	if acc.Counts == nil {
		acc.UpperNS = s.UpperNS
		acc.Counts = make([]int64, len(s.Counts))
	}
	for i, c := range s.Counts {
		acc.Counts[i] += c
	}
	acc.Count += s.Count
	acc.SumNS += s.SumNS
	return acc
}

// latencyQuantile returns the upper bound of the histogram bucket that
// holds the q-quantile read (the last finite bound for the +Inf bucket).
func latencyQuantile(h ssd.ReadLatencySnapshot, q float64) float64 {
	if h.Count == 0 || len(h.UpperNS) == 0 {
		return 0
	}
	rank := int64(q * float64(h.Count))
	seen := int64(0)
	for i, c := range h.Counts {
		seen += c
		if seen > rank {
			return float64(h.UpperNS[min(i, len(h.UpperNS)-1)])
		}
	}
	return float64(h.UpperNS[len(h.UpperNS)-1])
}
