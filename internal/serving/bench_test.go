package serving

import (
	"fmt"
	"os"
	"testing"

	"maxembed/internal/embedding"
	"maxembed/internal/hypergraph"
	"maxembed/internal/placement"
	"maxembed/internal/ssd"
	"maxembed/internal/store"
	"maxembed/internal/workload"
)

func benchEngine(b *testing.B, withStore bool) (*Engine, *workload.Trace) {
	b.Helper()
	p := workload.Criteo.Scaled(0.05)
	tr, err := workload.Generate(p)
	if err != nil {
		b.Fatal(err)
	}
	hist, _ := tr.Split(0.5)
	g, err := hypergraph.FromQueries(tr.NumItems, hist.Queries)
	if err != nil {
		b.Fatal(err)
	}
	lay, err := placement.Build(placement.StrategyMaxEmbed, g, placement.Options{
		Capacity: embedding.PageCapacity(4096, 64), ReplicationRatio: 0.2, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	dev, err := ssd.NewDevice(ssd.P5800X)
	if err != nil {
		b.Fatal(err)
	}
	cfg := Config{
		Layout:       lay,
		Device:       dev,
		CacheEntries: tr.NumItems / 10,
		IndexLimit:   10,
		Pipeline:     true,
		VectorBytes:  256,
	}
	if withStore {
		syn, err := embedding.NewSynthesizer(64, 1)
		if err != nil {
			b.Fatal(err)
		}
		st, err := store.Build(lay, syn, 4096)
		if err != nil {
			b.Fatal(err)
		}
		cfg.Store = st
	}
	eng, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return eng, tr
}

// BenchmarkWorkerLookupTiming measures the timing-only serving path — the
// configuration the experiment sweeps use.
func BenchmarkWorkerLookupTiming(b *testing.B) {
	eng, tr := benchEngine(b, false)
	w := eng.NewWorker()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.Lookup(tr.Queries[i%len(tr.Queries)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWorkerLookupFull includes page-image vector extraction.
func BenchmarkWorkerLookupFull(b *testing.B) {
	eng, tr := benchEngine(b, true)
	w := eng.NewWorker()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.Lookup(tr.Queries[i%len(tr.Queries)]); err != nil {
			b.Fatal(err)
		}
	}
}

// benchShardedEngine is benchEngine striped over a device array, with
// shard-aware replica placement and a sharded store.
func benchShardedEngine(b *testing.B, devices int) (*Engine, *workload.Trace) {
	b.Helper()
	p := workload.Criteo.Scaled(0.05)
	tr, err := workload.Generate(p)
	if err != nil {
		b.Fatal(err)
	}
	hist, _ := tr.Split(0.5)
	g, err := hypergraph.FromQueries(tr.NumItems, hist.Queries)
	if err != nil {
		b.Fatal(err)
	}
	lay, err := placement.Build(placement.StrategyMaxEmbed, g, placement.Options{
		Capacity: embedding.PageCapacity(4096, 64), ReplicationRatio: 0.2, Seed: 1,
		Shards: devices,
	})
	if err != nil {
		b.Fatal(err)
	}
	syn, err := embedding.NewSynthesizer(64, 1)
	if err != nil {
		b.Fatal(err)
	}
	st, err := store.BuildSharded(lay, syn, 4096, devices)
	if err != nil {
		b.Fatal(err)
	}
	arr, err := ssd.NewArray(ssd.P5800X, devices)
	if err != nil {
		b.Fatal(err)
	}
	eng, err := New(Config{
		Layout:       lay,
		Backend:      arr,
		Store:        st,
		CacheEntries: tr.NumItems / 10,
		IndexLimit:   10,
		Pipeline:     true,
		VectorBytes:  256,
	})
	if err != nil {
		b.Fatal(err)
	}
	return eng, tr
}

// BenchmarkWorkerLookupSharded measures the full lookup path over striped
// device arrays: the per-shard queue routing, cross-shard completion merge,
// and selection tie-breaking that only multi-device engines exercise.
func BenchmarkWorkerLookupSharded(b *testing.B) {
	for _, devices := range []int{1, 2, 4} {
		b.Run(fmtDevices(devices), func(b *testing.B) {
			eng, tr := benchShardedEngine(b, devices)
			w := eng.NewWorker()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := w.Lookup(tr.Queries[i%len(tr.Queries)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func fmtDevices(n int) string {
	return map[int]string{1: "devices=1", 2: "devices=2", 4: "devices=4"}[n]
}

// benchFileEngine builds the zero-copy real-I/O stack: shard files in a
// temp dir served through the async backend, cacheless so every lookup
// takes the ref path end to end.
func benchFileEngine(b *testing.B, shards int) (*Engine, *workload.Trace) {
	b.Helper()
	p := workload.Criteo.Scaled(0.05)
	tr, err := workload.Generate(p)
	if err != nil {
		b.Fatal(err)
	}
	hist, _ := tr.Split(0.5)
	g, err := hypergraph.FromQueries(tr.NumItems, hist.Queries)
	if err != nil {
		b.Fatal(err)
	}
	lay, err := placement.Build(placement.StrategyMaxEmbed, g, placement.Options{
		Capacity: embedding.PageCapacity(4096, 64), ReplicationRatio: 0.2, Seed: 1,
		Shards: shards,
	})
	if err != nil {
		b.Fatal(err)
	}
	syn, err := embedding.NewSynthesizer(64, 1)
	if err != nil {
		b.Fatal(err)
	}
	sh, err := store.BuildSharded(lay, syn, 4096, shards)
	if err != nil {
		b.Fatal(err)
	}
	dir := b.TempDir()
	files := make([]*store.FileStore, shards)
	for i := range files {
		path := fmt.Sprintf("%s/shard%03d.bin", dir, i)
		f, err := os.Create(path)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sh.Shard(i).WriteTo(f); err != nil {
			b.Fatal(err)
		}
		if err := f.Close(); err != nil {
			b.Fatal(err)
		}
		if files[i], _, err = store.OpenFileAuto(path); err != nil {
			b.Fatal(err)
		}
	}
	fb, err := ssd.NewFileBackend(files, ssd.FileBackendConfig{})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { fb.Close() })
	eng, err := New(Config{
		Layout:   lay,
		Backend:  fb,
		Store:    sh,
		Pipeline: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	return eng, tr
}

// BenchmarkWorkerLookupFileBackend measures the real-I/O hot path end to
// end — selection, async submit, measured-latency drain, in-place checksum
// verification, zero-copy ref assembly. Steady state allocates nothing
// (see TestFileBackendLookupZeroAllocs); -benchmem shows it.
func BenchmarkWorkerLookupFileBackend(b *testing.B) {
	for _, shards := range []int{1, 2, 4} {
		b.Run(fmtDevices(shards), func(b *testing.B) {
			eng, tr := benchFileEngine(b, shards)
			w := eng.NewWorker()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := w.Lookup(tr.Queries[i%len(tr.Queries)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkWorkerLookupBatch measures the coalesced batch path end to end:
// combined pass plus per-query scatter.
func BenchmarkWorkerLookupBatch(b *testing.B) {
	eng, tr := benchEngine(b, true)
	w := eng.NewWorker()
	const batch = 8
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		from := (i * batch) % (len(tr.Queries) - batch)
		if _, err := w.LookupBatch(tr.Queries[from : from+batch]); err != nil {
			b.Fatal(err)
		}
	}
}

// TestWorkerLookupSteadyStateAllocs guards the serving hot path's
// allocation budget: once a worker's scratch (result slices, selection
// plan, extraction arena) has grown to fit the workload, repeated lookups
// must allocate only incidental amounts — not one slice per key or per
// vector. The bound is deliberately loose (map rehashing and SSD queue
// growth make single-digit noise) but fails on any per-key regression.
func TestWorkerLookupSteadyStateAllocs(t *testing.T) {
	f := newFixture(t, placement.StrategyMaxEmbed, 0.3)
	e := f.engine(t, nil) // cacheless: cache inserts intentionally allocate
	w := e.NewWorker()
	qs := f.trace.Queries
	for i := 0; i < 300; i++ {
		if _, err := w.Lookup(qs[i%len(qs)]); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	allocs := testing.AllocsPerRun(500, func() {
		i++
		if _, err := w.Lookup(qs[i%len(qs)]); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("steady-state Lookup allocs/op: %.1f (queries average %d keys)", allocs, 16)
	if allocs > 16 {
		t.Errorf("steady-state Lookup allocates %.1f/op, budget 16", allocs)
	}
}

// TestWorkerLookupShardedSteadyStateAllocs holds the multi-shard lookup
// path to the same allocation budget as the single-device path: per-shard
// queue routing, the cross-shard completion merge, and shard-load
// tie-breaking must all run on reused worker scratch.
func TestWorkerLookupShardedSteadyStateAllocs(t *testing.T) {
	f := newFixture(t, placement.StrategyMaxEmbed, 0.3)
	e := f.engine(t, func(c *Config) {
		c.Device = nil
		c.Backend = mustTestArray(t, ssd.P5800X, 4)
	})
	w := e.NewWorker()
	qs := f.trace.Queries
	for i := 0; i < 300; i++ {
		if _, err := w.Lookup(qs[i%len(qs)]); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	allocs := testing.AllocsPerRun(500, func() {
		i++
		if _, err := w.Lookup(qs[i%len(qs)]); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("steady-state 4-shard Lookup allocs/op: %.1f", allocs)
	if allocs > 16 {
		t.Errorf("steady-state 4-shard Lookup allocates %.1f/op, budget 16", allocs)
	}
}
