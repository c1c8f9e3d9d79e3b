package serving

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"maxembed/internal/placement"
	"maxembed/internal/ssd"
	"maxembed/internal/store"
)

// fileBackend writes the fixture's layout to per-shard files and opens a
// real-I/O backend over them, plus the matching in-memory sharded store
// (the engine's PageSource for pinning, fallback, and recovery).
func (f *fixture) fileBackend(t *testing.T, shards int, cfg ssd.FileBackendConfig) (*ssd.FileBackend, *store.Sharded) {
	t.Helper()
	sh, err := store.BuildSharded(f.lay, f.syn, 4096, shards)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	files := make([]*store.FileStore, shards)
	for i := range files {
		path := filepath.Join(dir, fmt.Sprintf("shard%03d.bin", i))
		fl, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sh.Shard(i).WriteTo(fl); err != nil {
			t.Fatal(err)
		}
		if err := fl.Close(); err != nil {
			t.Fatal(err)
		}
		fs, _, err := store.OpenFileAuto(path)
		if err != nil {
			t.Fatal(err)
		}
		files[i] = fs
	}
	fb, err := ssd.NewFileBackend(files, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fb.Close() })
	return fb, sh
}

func (f *fixture) fileEngine(t *testing.T, shards int, mutate func(*Config)) (*Engine, *ssd.FileBackend) {
	t.Helper()
	return f.fileEngineWith(t, shards, ssd.FileBackendConfig{}, mutate)
}

// fileEngineWith is fileEngine over a backend built with cfg.
func (f *fixture) fileEngineWith(t *testing.T, shards int, bcfg ssd.FileBackendConfig, mutate func(*Config)) (*Engine, *ssd.FileBackend) {
	t.Helper()
	fb, sh := f.fileBackend(t, shards, bcfg)
	cfg := Config{
		Layout:   f.lay,
		Backend:  fb,
		Store:    sh,
		Pipeline: true,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e, fb
}

// TestFileBackendLookupMatchesStore drives the serving engine over real
// file I/O and verifies every returned embedding — through the zero-copy
// ref views, never the value path — against the synthesizer's ground
// truth.
func TestFileBackendLookupMatchesStore(t *testing.T) {
	f := newFixture(t, placement.StrategyMaxEmbed, 0.3)
	for _, shards := range []int{1, 3} {
		e, fb := f.fileEngine(t, shards, nil)
		w := e.NewWorker()
		var want []float32
		for qi := 0; qi < 250; qi++ {
			q := f.trace.Queries[qi]
			res, err := w.Lookup(q)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.FailedKeys) != 0 {
				t.Fatalf("shards=%d query %d: failed keys %v", shards, qi, res.FailedKeys)
			}
			if res.Refs == nil || len(res.Refs) != len(res.Keys) {
				t.Fatalf("shards=%d query %d: Refs len %d, Keys len %d",
					shards, qi, len(res.Refs), len(res.Keys))
			}
			for i, k := range res.Keys {
				ref := res.Refs[i]
				if !ref.Valid() {
					t.Fatalf("shards=%d query %d key %d: no ref on a cacheless file engine", shards, qi, k)
				}
				if ref.Dim() != testDim {
					t.Fatalf("ref dim = %d, want %d", ref.Dim(), testDim)
				}
				want = f.syn.Vector(k, want[:0])
				for j := range want {
					if got := ref.Float32(j); got != want[j] {
						t.Fatalf("shards=%d query %d key %d elem %d: %v want %v",
							shards, qi, k, j, got, want[j])
					}
				}
			}
		}
		if st := fb.Stats(); st.Reads == 0 || st.Errors != 0 {
			t.Fatalf("shards=%d: backend stats %+v", shards, st)
		}
		if lat := fb.ShardReadLatency(0); lat.Count == 0 {
			t.Fatalf("shards=%d: no latency samples recorded", shards)
		}
	}
}

// TestFileBackendLookupWithCache checks that with a DRAM cache the value
// path (Vectors) is populated alongside the refs and both agree; cache
// hits come back as value entries with zero refs.
func TestFileBackendLookupWithCache(t *testing.T) {
	f := newFixture(t, placement.StrategyMaxEmbed, 0.3)
	e, _ := f.fileEngine(t, 2, func(c *Config) { c.CacheEntries = f.trace.NumItems / 4 })
	w := e.NewWorker()
	sawHit, sawRef := false, false
	for qi := 0; qi < 300; qi++ {
		res, err := w.Lookup(f.trace.Queries[qi])
		if err != nil {
			t.Fatal(err)
		}
		for i := range res.Keys {
			v := res.Vectors[i]
			if len(v) != testDim {
				t.Fatalf("query %d: vector len %d with cache enabled", qi, len(v))
			}
			if ref := res.Refs[i]; ref.Valid() {
				sawRef = true
				for j := range v {
					if ref.Float32(j) != v[j] {
						t.Fatalf("query %d key %d: ref and vector disagree", qi, res.Keys[i])
					}
				}
			} else {
				sawHit = true
			}
		}
	}
	if !sawRef || !sawHit {
		t.Fatalf("exercised refs=%v hits=%v; want both", sawRef, sawHit)
	}
}

// TestFileBackendRetainAcrossLookups pins one result's refs past the
// worker's next lookups — the server's concurrent-encoder pattern — and
// verifies the retained views stay intact while unretained buffers
// recycle underneath.
func TestFileBackendRetainAcrossLookups(t *testing.T) {
	f := newFixture(t, placement.StrategyMaxEmbed, 0.3)
	e, _ := f.fileEngine(t, 1, nil)
	w := e.NewWorker()
	res, err := w.Lookup(f.trace.Queries[0])
	if err != nil {
		t.Fatal(err)
	}
	// Pin the buffers AND copy the ref values out: Result.Refs itself is
	// worker scratch whose SlotRef structs the next lookup overwrites in
	// place, so a holder keeps its own copies (as the server's response
	// leases do).
	res.RetainRefs()
	keys := append([]Key(nil), res.Keys...)
	refs := append([]SlotRef(nil), res.Refs...)
	for qi := 1; qi < 80; qi++ {
		if _, err := w.Lookup(f.trace.Queries[qi]); err != nil {
			t.Fatal(err)
		}
	}
	var want []float32
	for i, k := range keys {
		want = f.syn.Vector(k, want[:0])
		for j := range want {
			if got := refs[i].Float32(j); got != want[j] {
				t.Fatalf("retained ref for key %d changed under buffer recycling", k)
			}
		}
	}
	for _, r := range refs {
		r.Release()
	}
}

// TestFileBackendBatchRefs checks LookupBatch's scatter carries ref views
// per member query, parallel to each query's keys.
func TestFileBackendBatchRefs(t *testing.T) {
	f := newFixture(t, placement.StrategyMaxEmbed, 0.3)
	e, _ := f.fileEngine(t, 2, nil)
	w := e.NewWorker()
	var want []float32
	for from := 0; from+4 <= 120; from += 4 {
		br, err := w.LookupBatch(f.trace.Queries[from : from+4])
		if err != nil {
			t.Fatal(err)
		}
		for qi, r := range br.PerQuery {
			if len(r.Refs) != len(r.Keys) {
				t.Fatalf("batch %d query %d: %d refs for %d keys", from, qi, len(r.Refs), len(r.Keys))
			}
			for i, k := range r.Keys {
				if !r.Refs[i].Valid() {
					t.Fatalf("batch %d query %d key %d: invalid ref", from, qi, k)
				}
				want = f.syn.Vector(k, want[:0])
				for j := range want {
					if r.Refs[i].Float32(j) != want[j] {
						t.Fatalf("batch %d query %d key %d: wrong payload", from, qi, k)
					}
				}
			}
		}
	}
}

// TestFileBackendLookupZeroAllocs is the tentpole's allocation guard: once
// warm, a cacheless lookup over the real-I/O backend — selection, submit,
// drain, in-place checksum verification, ref assembly, accounting — must
// allocate nothing at all. Any regression here reintroduces per-key or
// per-page garbage on the hot path.
func TestFileBackendLookupZeroAllocs(t *testing.T) {
	f := newFixture(t, placement.StrategyMaxEmbed, 0.3)
	forEachExecutor(t, f, func(t *testing.T, cfg ssd.FileBackendConfig) {
		e, _ := f.fileEngineWith(t, 2, cfg, nil)
		w := e.NewWorker()
		qs := f.trace.Queries
		for i := 0; i < 700; i++ {
			if _, err := w.Lookup(qs[i%len(qs)]); err != nil {
				t.Fatal(err)
			}
		}
		// Latency samples fill chunks allocated as the run grows; the
		// warmup above allocated the one the measured runs fill, and
		// Reset keeps it.
		e.Latency.Reset()
		i := 0
		allocs := testing.AllocsPerRun(500, func() {
			i++
			if _, err := w.Lookup(qs[i%len(qs)]); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("steady-state file-backend Lookup allocs/op = %.1f, want 0", allocs)
		}
	})
}

// forEachExecutor runs fn as one subtest per read executor: io_uring
// (skipped where the kernel refuses it) and the pread pool.
func forEachExecutor(t *testing.T, f *fixture, fn func(t *testing.T, cfg ssd.FileBackendConfig)) {
	t.Run("io_uring", func(t *testing.T) {
		if fb, _ := f.fileBackend(t, 1, ssd.FileBackendConfig{}); fb.ExecutorKind() != "io_uring" {
			t.Skip("io_uring unavailable here")
		}
		fn(t, ssd.FileBackendConfig{})
	})
	t.Run("pread", func(t *testing.T) { fn(t, ssd.FileBackendConfig{ForcePread: true}) })
}

// TestFileBackendBatchZeroAllocs extends the zero-alloc guard to the
// coalesced batch path: combined pass plus CSR scatter.
func TestFileBackendBatchZeroAllocs(t *testing.T) {
	f := newFixture(t, placement.StrategyMaxEmbed, 0.3)
	forEachExecutor(t, f, func(t *testing.T, cfg ssd.FileBackendConfig) {
		e, _ := f.fileEngineWith(t, 2, cfg, nil)
		w := e.NewWorker()
		qs := f.trace.Queries
		const batch = 6
		for i := 0; i < 200; i++ {
			from := (i * batch) % (len(qs) - batch)
			if _, err := w.LookupBatch(qs[from : from+batch]); err != nil {
				t.Fatal(err)
			}
		}
		e.Latency.Reset()
		i := 0
		allocs := testing.AllocsPerRun(300, func() {
			i++
			from := (i * batch) % (len(qs) - batch)
			if _, err := w.LookupBatch(qs[from : from+batch]); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("steady-state file-backend LookupBatch allocs/op = %.1f, want 0", allocs)
		}
	})
}

// TestFileBackendURingMatchesPread is the differential check of the two
// read executors: the same queries through io_uring and through the pread
// pool must serve identical keys and vector bytes, read the same pages on
// the same shards, and fail the same keys (none). The backends run at a
// queue depth of 8, so LookupBatch plans overflow the leased ring and
// drive its full-ring pump.
func TestFileBackendURingMatchesPread(t *testing.T) {
	f := newFixture(t, placement.StrategyMaxEmbed, 0.3)
	prof := ssd.P5800X
	prof.QueueDepth = 8
	type outcome struct {
		keys, failed []Key
		vecs         [][]byte
		pages        int
	}
	run := func(t *testing.T, shards int, cfg ssd.FileBackendConfig) ([]outcome, []int64, string) {
		cfg.Profile = prof
		e, fb := f.fileEngineWith(t, shards, cfg, nil)
		w := e.NewWorker()
		var outs []outcome
		record := func(r Result) {
			o := outcome{
				keys:   append([]Key(nil), r.Keys...),
				failed: append([]Key(nil), r.FailedKeys...),
				pages:  r.Stats.PagesRead,
			}
			for _, ref := range r.Refs {
				o.vecs = append(o.vecs, append([]byte(nil), ref.Payload()...))
			}
			outs = append(outs, o)
		}
		qs := f.trace.Queries
		for qi := 0; qi < 120; qi++ {
			r, err := w.Lookup(qs[qi])
			if err != nil {
				t.Fatal(err)
			}
			record(r)
		}
		const batch = 12
		overflowed := false
		for from := 120; from+batch <= 360; from += batch {
			br, err := w.LookupBatch(qs[from : from+batch])
			if err != nil {
				t.Fatal(err)
			}
			overflowed = overflowed || br.Stats.Combined.PagesRead > prof.QueueDepth
			for _, r := range br.PerQuery {
				record(r)
			}
		}
		if !overflowed {
			t.Fatalf("no batch plan exceeded the ring depth %d", prof.QueueDepth)
		}
		var reads []int64
		for _, st := range fb.ShardStats() {
			reads = append(reads, st.Reads)
		}
		return outs, reads, fb.ExecutorKind()
	}
	for _, shards := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			ring, ringReads, kind := run(t, shards, ssd.FileBackendConfig{})
			if kind != "io_uring" {
				t.Skipf("io_uring unavailable here (executor %s)", kind)
			}
			pool, poolReads, _ := run(t, shards, ssd.FileBackendConfig{ForcePread: true})
			if !reflect.DeepEqual(ringReads, poolReads) {
				t.Errorf("per-shard reads: io_uring %v, pread %v", ringReads, poolReads)
			}
			for i := range ring {
				if !reflect.DeepEqual(ring[i], pool[i]) {
					t.Fatalf("result %d differs: io_uring keys %v failed %v pages %d, pread keys %v failed %v pages %d",
						i, ring[i].keys, ring[i].failed, ring[i].pages, pool[i].keys, pool[i].failed, pool[i].pages)
				}
				if len(ring[i].failed) != 0 {
					t.Fatalf("result %d: failed keys %v", i, ring[i].failed)
				}
			}
		})
	}
}
