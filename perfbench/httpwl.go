package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"maxembed"
	"maxembed/internal/layout"
	"maxembed/internal/serving"
	"maxembed/internal/ssd"
	"maxembed/internal/workload"
)

// inputs is a workload's generated trace, split into the history the DB
// is built from and the held-out queries it serves.
type inputs struct {
	items   int
	history [][]uint32
	eval    [][]uint32
	era2    [][]uint32 // held-out half of the seed+1 trace (refresh-m2)
}

func (b *bench) genInputs() (*inputs, error) {
	p := b.wl.profile.Scaled(b.wl.scale)
	tr, err := workload.GenerateSeeded(p, b.seed)
	if err != nil {
		return nil, err
	}
	hist, eval := tr.Split(0.5)
	in := &inputs{items: tr.NumItems, history: hist.Queries, eval: eval.Queries}
	if b.wl.refresh {
		tr2, err := workload.GenerateSeeded(p, b.seed+1)
		if err != nil {
			return nil, err
		}
		_, eval2 := tr2.Split(0.5)
		in.era2 = eval2.Queries
	}
	chk, err := newChecker(embDim, dbSeed, in.items)
	if err != nil {
		return nil, err
	}
	b.chk = chk
	return in, nil
}

// recordLast is the server's default served-query history window.
const recordLast = 65536

// dbOptions mirrors the server flags the HTTP workloads launch with, so
// the in-process DB used for the virtual-clock replay and the layer
// replays is built exactly like the server's.
func (b *bench) dbOptions() []maxembed.Option {
	opts := []maxembed.Option{
		maxembed.WithReplicationRatio(b.wl.ratio),
		maxembed.WithCacheRatio(b.wl.cacheRatio),
		maxembed.WithIndexLimit(10),
		maxembed.WithSeed(dbSeed),
		maxembed.WithEmbeddingDim(embDim),
	}
	if b.wl.devices > 1 {
		opts = append(opts, maxembed.WithDevices(b.wl.devices))
	}
	if !b.wl.file {
		opts = append(opts, maxembed.WithHistoryRecording(recordLast))
	}
	return opts
}

func (b *bench) serverArgs(historyPath string) []string {
	return []string{
		"-trace", historyPath,
		"-ratio", strconv.FormatFloat(b.wl.ratio, 'g', -1, 64),
		"-cache", strconv.FormatFloat(b.wl.cacheRatio, 'g', -1, 64),
		"-k", "10",
		"-seed", strconv.Itoa(dbSeed),
		"-devices", strconv.Itoa(b.wl.devices),
		"-record-last", strconv.Itoa(recordLast),
	}
}

// refreshRun is one POST /v1/refresh fired under load; times are offsets
// from the start of the open-loop phase.
type refreshRun struct{ start, end time.Duration }

// runHTTP drives an HTTP workload against a maxembed-server child
// process: set-up timing, the virtual-clock replay, a warm-up, the timed
// open loop at the workload's rate and a closed loop at saturation.
func (b *bench) runHTTP(ctx context.Context) error {
	b.meta = newMeta(b.wl.name, b.seed)
	in, err := b.genInputs()
	if err != nil {
		return err
	}
	histPath := filepath.Join(b.out, "history.trace")
	if err := writeTrace(histPath, in.items, in.history); err != nil {
		return err
	}
	if !b.wl.binary {
		b.chk.precomputeJSON()
	}
	args := b.serverArgs(histPath)
	logPath := filepath.Join(b.out, "server.log")

	// Set-up: from the generated trace to a server answering /healthz.
	// All but the last launch are stopped once ready; the last serves.
	var setups []float64
	for i := 0; i < setupReps-1; i++ {
		srv, d, err := startServer(ctx, b.serverBin, args, logPath)
		if err != nil {
			return err
		}
		srv.stop()
		setups = append(setups, d.Seconds())
	}

	if err := b.vclockDB(in); err != nil {
		return err
	}

	srv, d, err := startServer(ctx, b.serverBin, args, logPath)
	if err != nil {
		return err
	}
	defer srv.stop()
	setups = append(setups, d.Seconds())
	b.m.set("setup_s", median(setups))

	rate := b.wl.rate
	warmDur := time.Second
	openDur := b.dur * 7 / 10
	if b.trace {
		openDur = b.dur * 4 / 10 // the traced pass repeats it
	}
	nWarm := int(rate * warmDur.Seconds())
	stream := in.eval
	if b.wl.refresh {
		// Era 1 until 40% of the open loop, then the drifted era 2.
		cut := nWarm + int(0.4*rate*openDur.Seconds())
		stream = append(append([][]uint32(nil), in.eval[:cut]...), in.era2...)
	}
	t := newHTTPTraffic(srv.base, b.wl.binary, stream, b.conns, b.chk)
	defer t.close()

	warm := t.openLoop(ctx, 0, rate, warmDur, b.seed+1000, nil)
	b.tally(warm)
	first := len(warm)

	var refreshes []refreshRun
	var refreshErr error
	var rwg sync.WaitGroup
	startRefreshes := func(start time.Time) {
		if !b.wl.refresh {
			return
		}
		rwg.Add(1)
		go func() {
			defer rwg.Done()
			for _, at := range []float64{0.5, 0.8} {
				time.Sleep(time.Until(start.Add(time.Duration(at * float64(openDur)))))
				r0 := time.Since(start)
				if err := srv.refresh(ctx); err != nil {
					refreshErr = err
					return
				}
				refreshes = append(refreshes, refreshRun{r0, time.Since(start)})
			}
		}()
	}
	cpu0, err := srv.cpuSeconds()
	if err != nil {
		return err
	}
	rssMon := watchRSS(srv.cmd.Process.Pid)
	recs := t.openLoop(ctx, first, rate, openDur, b.seed, startRefreshes)
	rss, rssErr := rssMon.stop()
	cpu1, err := srv.cpuSeconds()
	if err := errors.Join(err, rssErr); err != nil {
		return err
	}
	rwg.Wait()
	if refreshErr != nil {
		return refreshErr
	}
	b.tally(recs)
	first += len(recs)
	if len(recs) == 0 {
		return fmt.Errorf("open loop sent nothing")
	}

	var traced []reqRecord
	if b.trace {
		t.tracer = b.tr
		traced = t.openLoop(ctx, first, rate, openDur, b.seed, nil)
		t.tracer = nil
		b.tally(traced)
		first += len(traced)
	}

	closedDur := b.dur - openDur
	if b.trace {
		closedDur -= openDur
	}
	// The closed loop keeps the coalescer's batch limit of requests in
	// flight, so batches can fill instead of waiting out the gather
	// window.
	ct := newHTTPTraffic(srv.base, b.wl.binary, stream, closedConns, b.chk)
	defer ct.close()
	closed, elapsed := ct.closedLoop(ctx, first, closedDur)
	b.tally(closed)
	b.trafficWall = warmDur + openDur + elapsed
	if b.trace {
		b.trafficWall += openDur
	}

	st, err := srv.stats()
	if err != nil {
		return err
	}
	all := append(append(append(append([]reqRecord(nil), warm...), recs...), traced...), closed...)
	b.checkServerTotals(all, st.Device.Reads, st.Recovery.FailedKeys)

	fromDue := make(samples, 0, len(recs))
	for i := range recs {
		fromDue.add(recs[i].fromDue())
	}
	var okDone []time.Duration
	for i := range closed {
		if closed[i].ok {
			okDone = append(okDone, closed[i].done)
		}
	}
	b.m.set("lookup_p50_us", fromDue.windowQuantile(0.5))
	b.m.set("lookup_p90_us", fromDue.windowQuantile(0.9))
	b.m.set("lookup_p99_us", fromDue.windowQuantile(0.99))
	b.m.set("cpu_us_per_lookup", (cpu1-cpu0)*1e6/float64(len(recs)))
	b.m.set("closed_qps", windowRate(okDone, elapsed, time.Second))
	b.m.set("rss_mb", rss)
	if !b.trace {
		return nil
	}
	return b.httpLayers(in, st, warm, recs, traced, refreshes)
}

// vclockDB builds an in-process DB exactly like the server's and runs
// the virtual-clock replay on it, before any wall-clock traffic, so the
// replay repeats exactly for a seed. The DB is dropped before the server
// serves.
func (b *bench) vclockDB(in *inputs) error {
	db, err := maxembed.Open(in.items, in.history, b.dbOptions()...)
	if err != nil {
		return err
	}
	b.setHeapInuse()
	return b.vclock(db.Engine(), db.Backend(), db.Engine().Layout(), in.eval)
}

// closedConns is the closed loop's connection count: the server's
// default coalescer batch limit.
const closedConns = 8

// tally counts attempted and failed lookups.
func (b *bench) tally(recs []reqRecord) {
	b.attempted += int64(len(recs))
	for i := range recs {
		if !recs[i].ok {
			b.failed++
		}
	}
}

// checkServerTotals holds the server's device and recovery counters to
// what the responses reported: page reads apportioned to lookups (JSON
// stats) must sum to the device's reads, and the failed keys lookups
// reported to the server's failed-key total. MXE1 frames carry no
// per-lookup stats, so binary workloads check failed keys only.
func (b *bench) checkServerTotals(recs []reqRecord, deviceReads, failedKeys int64) {
	share, failed := 0.0, int64(0)
	for i := range recs {
		share += recs[i].pageShare
		failed += int64(recs[i].failedKeys)
	}
	if !b.wl.binary && math.Abs(share-float64(deviceReads)) > 0.5+1e-9*float64(deviceReads) {
		b.chk.note(fmt.Errorf("lookups report %.3f page reads, device counted %d", share, deviceReads))
	}
	if failed != failedKeys {
		b.chk.note(fmt.Errorf("lookups report %d failed keys, server counted %d", failed, failedKeys))
	}
}

// writeTrace writes queries in the binary trace format the server's
// -trace flag reads.
func writeTrace(path string, items int, queries [][]uint32) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	tr := &workload.Trace{NumItems: items, Queries: queries}
	if err := tr.Encode(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// vclock replays queries through serving.Run on a freshly built engine
// and reports the virtual-clock metrics and embeddings per read. The
// replay is single-threaded over vclockConns interleaved workers, so it
// repeats exactly for a seed.
func (b *bench) vclock(eng *serving.Engine, be ssd.Backend, lay *layout.Layout, queries [][]uint32) error {
	before := be.Stats()
	res, err := serving.Run(eng, queries, vclockConns)
	if err != nil {
		return err
	}
	after := be.Stats()
	if reads := after.Reads - before.Reads; reads != res.PagesRead {
		b.chk.note(fmt.Errorf("virtual-clock replay: lookups report %d page reads, device counted %d", res.PagesRead, reads))
	}
	if res.FailedKeys != 0 {
		b.chk.note(fmt.Errorf("virtual-clock replay: %d failed keys", res.FailedKeys))
	}
	b.m.set("vclock.qps", res.QPS)
	b.m.set("vclock.p99_us", float64(res.Latency.P99NS)/1e3)
	b.m.set("vclock.eff_bw_mbps", res.EffectiveBandwidth/1e6)
	b.m.set("emb_per_read", res.MeanValidPerRead)
	// Layer detail for the traced run.
	n := float64(res.Queries)
	b.m.set("serving.vclock.sort_ns", float64(res.SortNS)/n)
	b.m.set("serving.vclock.select_ns", float64(res.SelectNS)/n)
	b.m.set("serving.vclock.ssd_wait_ns", float64(res.SSDWaitNS)/n)
	b.m.set("serving.vclock.other_ns", float64(res.OtherSoftNS)/n)
	b.m.set("ssd.vclock.busy_frac", ratio(float64(after.BusyNS-before.BusyNS),
		float64(res.ElapsedNS)*float64(be.Profile().Channels*be.NumShards())))
	b.m.set("placement.mean_shard_depth", res.MeanMaxShardDepth)
	ls := lay.ComputeStats()
	b.m.set("placement.replica_frac", ls.ReplicationRatio)
	b.m.set("placement.pages", float64(ls.NumPages))
	return nil
}
