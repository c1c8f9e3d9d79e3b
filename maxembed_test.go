package maxembed

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"
)

func smallTrace(t *testing.T) *Trace {
	t.Helper()
	tr, err := GenerateTrace(ProfileAmazonM2, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestOpenAndLookup(t *testing.T) {
	tr := smallTrace(t)
	history, eval := tr.Split(0.5)
	db, err := Open(tr.NumItems, history.Queries, WithReplicationRatio(0.2), WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	sess := db.NewSession()
	for i := 0; i < 100 && i < len(eval.Queries); i++ {
		res, err := sess.Lookup(eval.Queries[i])
		if err != nil {
			t.Fatal(err)
		}
		distinct := map[Key]bool{}
		for _, k := range eval.Queries[i] {
			distinct[k] = true
		}
		if len(res.Keys) != len(distinct) {
			t.Fatalf("query %d: got %d keys, want %d", i, len(res.Keys), len(distinct))
		}
		for j, v := range res.Vectors {
			if len(v) != 64 {
				t.Fatalf("vector %d has dim %d", j, len(v))
			}
		}
	}
	if db.DeviceStats().Reads == 0 {
		t.Error("no SSD reads recorded")
	}
	ls := db.LayoutStats()
	if ls.ReplicationRatio <= 0 || ls.ReplicationRatio > 0.2 {
		t.Errorf("ReplicationRatio = %v, want (0, 0.2]", ls.ReplicationRatio)
	}
}

func TestOpenDefaultsAndOptions(t *testing.T) {
	tr := smallTrace(t)
	for _, opts := range [][]Option{
		nil,
		{WithStrategy(StrategySHP)},
		{WithStrategy(StrategyRPP), WithReplicationRatio(0.3)},
		{WithStrategy(StrategyFPR), WithReplicationRatio(0.3)},
		{WithStrategy(StrategyVanilla)},
		{WithEmbeddingDim(32)},
		{WithIndexLimit(0)},
		{WithCacheEntries(100)},
		{WithCacheRatio(0)},
		{WithoutPipeline()},
		{WithGreedySelection()},
		{WithDevice(DeviceP4510)},
		{WithDevices(2)},
		{TimingOnly()},
	} {
		db, err := Open(tr.NumItems, tr.Queries[:500], opts...)
		if err != nil {
			t.Fatalf("Open(%d opts): %v", len(opts), err)
		}
		if _, err := db.Lookup(tr.Queries[0]); err != nil {
			t.Fatalf("Lookup: %v", err)
		}
	}
}

func TestOpenErrors(t *testing.T) {
	if _, err := Open(-1, nil); err == nil {
		t.Error("negative numItems accepted")
	}
	if _, err := Open(2, [][]Key{{5}}); err == nil {
		t.Error("history key out of range accepted")
	}
	if _, err := Open(10, nil, WithReplicationRatio(-2)); err == nil {
		t.Error("negative ratio accepted")
	}
}

func TestConcurrentSessions(t *testing.T) {
	tr := smallTrace(t)
	db, err := Open(tr.NumItems, tr.Queries, WithCacheRatio(0.1))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sess := db.NewSession()
			for i := w; i < len(tr.Queries); i += 8 {
				if _, err := sess.Lookup(tr.Queries[i]); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestTimingOnlyNoVectors(t *testing.T) {
	tr := smallTrace(t)
	db, err := Open(tr.NumItems, tr.Queries[:500], TimingOnly(), WithCacheRatio(0))
	if err != nil {
		t.Fatal(err)
	}
	res, err := db.Lookup(tr.Queries[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Vectors) != 0 {
		t.Errorf("timing-only returned %d vectors", len(res.Vectors))
	}
	if res.Stats.PagesRead == 0 {
		t.Error("timing-only did no reads")
	}
}

func TestRefreshKeepsHomesAndServesCorrectly(t *testing.T) {
	tr := smallTrace(t)
	first, rest := tr.Split(0.3)
	second, eval := rest.Split(0.5)
	db, err := Open(tr.NumItems, first.Queries, WithReplicationRatio(0.3), WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	homesBefore := append([]uint32(nil), db.lay.Home...)
	replicasBefore := db.LayoutStats().ReplicaSlots

	if err := db.Refresh(second.Queries); err != nil {
		t.Fatalf("Refresh: %v", err)
	}
	if !reflect.DeepEqual(homesBefore, db.lay.Home) {
		t.Error("Refresh moved home pages")
	}
	if db.LayoutStats().ReplicaSlots == 0 && replicasBefore > 0 {
		t.Error("Refresh dropped all replicas")
	}
	// Post-refresh sessions serve correct vectors.
	sess := db.NewSession()
	var want []float32
	for i := 0; i < 50 && i < len(eval.Queries); i++ {
		res, err := sess.Lookup(eval.Queries[i])
		if err != nil {
			t.Fatal(err)
		}
		for j, k := range res.Keys {
			want = db.syn.Vector(k, want[:0])
			for x := range want {
				if res.Vectors[j][x] != want[x] {
					t.Fatalf("wrong vector for key %d after refresh", k)
				}
			}
		}
	}
}

func TestRefreshRequiresMaxEmbedStrategy(t *testing.T) {
	tr := smallTrace(t)
	db, err := Open(tr.NumItems, tr.Queries[:200], WithStrategy(StrategySHP))
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Refresh(tr.Queries[200:400]); err == nil {
		t.Error("Refresh accepted a non-MaxEmbed strategy")
	}
}

func TestLookupBatch(t *testing.T) {
	tr := smallTrace(t)
	history, eval := tr.Split(0.5)
	db, err := Open(tr.NumItems, history.Queries,
		WithReplicationRatio(0.2), WithCacheRatio(0))
	if err != nil {
		t.Fatal(err)
	}
	sess := db.NewSession()
	batch := eval.Queries[:4]
	res, err := sess.LookupBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	distinct := map[Key]bool{}
	for _, q := range batch {
		for _, k := range q {
			distinct[k] = true
		}
	}
	if res.Stats.Combined.DistinctKeys != len(distinct) {
		t.Errorf("batch served %d distinct keys, want %d", res.Stats.Combined.DistinctKeys, len(distinct))
	}
	// Each query gets back exactly its own distinct keys.
	if len(res.PerQuery) != len(batch) {
		t.Fatalf("PerQuery = %d, want %d", len(res.PerQuery), len(batch))
	}
	for qi, q := range batch {
		want := map[Key]bool{}
		for _, k := range q {
			want[k] = true
		}
		got := res.PerQuery[qi]
		if len(got.Keys) != len(want) {
			t.Errorf("query %d returned %d keys, want %d", qi, len(got.Keys), len(want))
		}
		for _, k := range got.Keys {
			if !want[k] {
				t.Errorf("query %d returned key %d it never asked for", qi, k)
			}
		}
	}
	// Batching the same queries must not read more pages than serving
	// them separately (shared pages are read once).
	sep := db.NewSession()
	var sepPages int
	for _, q := range batch {
		r, err := sep.Lookup(q)
		if err != nil {
			t.Fatal(err)
		}
		sepPages += r.Stats.PagesRead
	}
	if got := res.Stats.Combined.PagesRead; got > sepPages {
		t.Errorf("batch read %d pages, separate lookups %d", got, sepPages)
	}
}

func TestSegmentedCacheOption(t *testing.T) {
	tr := smallTrace(t)
	db, err := Open(tr.NumItems, tr.Queries[:500], WithSegmentedCache(), WithCacheRatio(0.1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Lookup(tr.Queries[0]); err != nil {
		t.Fatal(err)
	}
	if db.Engine().Cache() == nil {
		t.Fatal("segmented cache not constructed")
	}
}

func TestHistoryRecordingAndRefreshLoop(t *testing.T) {
	tr := smallTrace(t)
	history, live := tr.Split(0.5)
	db, err := Open(tr.NumItems, history.Queries,
		WithReplicationRatio(0.2), WithHistoryRecording(300))
	if err != nil {
		t.Fatal(err)
	}
	if db.RecordedHistory() != nil && len(db.RecordedHistory()) != 0 {
		t.Error("history non-empty before serving")
	}
	sess := db.NewSession()
	for i := 0; i < 400; i++ {
		if _, err := sess.Lookup(live.Queries[i%len(live.Queries)]); err != nil {
			t.Fatal(err)
		}
	}
	recorded := db.RecordedHistory()
	if len(recorded) != 300 {
		t.Fatalf("recorded %d queries, want 300", len(recorded))
	}
	if err := db.Refresh(recorded); err != nil {
		t.Fatalf("Refresh from recorded history: %v", err)
	}
	if _, err := db.NewSession().Lookup(live.Queries[0]); err != nil {
		t.Fatalf("lookup after refresh: %v", err)
	}
}

// TestHotSwapUnderConcurrentLookups hammers the refresh hot-swap seam:
// sessions serve isolated and coalesced lookups (with device faults armed)
// while the layout is refreshed repeatedly underneath them. Every served
// vector must stay correct, each session must observe a non-decreasing
// layout generation, per-query PageShare must keep summing to the batch's
// page reads, and the final generation must reflect every refresh.
func TestHotSwapUnderConcurrentLookups(t *testing.T) {
	tr := smallTrace(t)
	history, live := tr.Split(0.5)
	db, err := Open(tr.NumItems, history.Queries,
		WithReplicationRatio(0.3), WithSeed(3),
		WithHistoryRecording(256),
		WithFaultInjection(FaultConfig{Seed: 7, ReadErrorProb: 0.01, CorruptProb: 0.005}))
	if err != nil {
		t.Fatal(err)
	}

	const workers = 4
	const refreshes = 3
	stop := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	fail := func(format string, args ...any) {
		select {
		case errs <- fmt.Errorf(format, args...):
		default:
		}
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sess := db.NewSession()
			lastGen := sess.Generation()
			var want []float32
			checkResult := func(res Result) bool {
				for j, k := range res.Keys {
					want = db.syn.Vector(k, want[:0])
					got := res.Vectors[j]
					if len(got) != len(want) {
						fail("worker %d: key %d vector dim %d, want %d", w, k, len(got), len(want))
						return false
					}
					for x := range want {
						if got[x] != want[x] {
							fail("worker %d: wrong vector for key %d (gen %d)", w, k, res.Stats.Generation)
							return false
						}
					}
				}
				return true
			}
			for i := w; ; i += workers {
				select {
				case <-stop:
					return
				default:
				}
				q := live.Queries[i%len(live.Queries)]
				var gen uint64
				if w%2 == 0 {
					res, err := sess.Lookup(q)
					if err != nil {
						fail("worker %d: Lookup: %v", w, err)
						return
					}
					if !checkResult(res) {
						return
					}
					gen = res.Stats.Generation
				} else {
					q2 := live.Queries[(i+1)%len(live.Queries)]
					br, err := sess.LookupBatch([][]Key{q, q2})
					if err != nil {
						fail("worker %d: LookupBatch: %v", w, err)
						return
					}
					var share float64
					for _, r := range br.PerQuery {
						if !checkResult(r) {
							return
						}
						share += r.Stats.PageShare
					}
					if got := float64(br.Stats.Combined.PagesRead); share < got-1e-6 || share > got+1e-6 {
						fail("worker %d: PageShare sum %.6f != batch PagesRead %d", w, share, br.Stats.Combined.PagesRead)
						return
					}
					gen = br.Stats.Combined.Generation
				}
				if gen < lastGen {
					fail("worker %d: generation went backwards: %d after %d", w, gen, lastGen)
					return
				}
				lastGen = gen
			}
		}(w)
	}

	for r := 0; r < refreshes; r++ {
		if err := db.Refresh(live.Queries[:200]); err != nil {
			t.Errorf("refresh %d: %v", r, err)
			break
		}
		// Let the hammer goroutines serve a few queries on the new
		// generation before the next swap.
		time.Sleep(5 * time.Millisecond)
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got, want := db.LayoutGeneration(), uint64(1+refreshes); got != want {
		t.Errorf("final layout generation = %d, want %d", got, want)
	}
	if db.Handle().Swaps() != refreshes {
		t.Errorf("Swaps = %d, want %d", db.Handle().Swaps(), refreshes)
	}
}
