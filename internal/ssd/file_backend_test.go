package ssd

import (
	"os"
	"path/filepath"
	"sync"
	"testing"

	"maxembed/internal/embedding"
	"maxembed/internal/layout"
	"maxembed/internal/store"
)

// buildBackendFiles writes a sharded store to disk and opens it per shard.
func buildBackendFiles(t testing.TB, shards int) ([]*store.FileStore, *store.Sharded, *layout.Layout) {
	return buildBackendFilesN(t, shards, 200)
}

// buildBackendFilesN is buildBackendFiles over a store of the given key
// count (about 56 keys per page).
func buildBackendFilesN(t testing.TB, shards, keys int) ([]*store.FileStore, *store.Sharded, *layout.Layout) {
	t.Helper()
	syn, err := embedding.NewSynthesizer(16, 3)
	if err != nil {
		t.Fatal(err)
	}
	lay := layout.Vanilla(keys, embedding.PageCapacity(4096, 16))
	sh, err := store.BuildSharded(lay, syn, 4096, shards)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	files := make([]*store.FileStore, shards)
	for i := 0; i < shards; i++ {
		path := filepath.Join(dir, "shard.bin")
		path = filepath.Join(dir, filepath.Base(path)+"."+string(rune('0'+i)))
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
		fs, _, err := store.OpenFileAuto(path)
		if err != nil {
			t.Fatal(err)
		}
		files[i] = fs
	}
	return files, sh, lay
}

func newTestFileBackend(t *testing.T, shards int, cfg FileBackendConfig) (*FileBackend, *store.Sharded, *layout.Layout) {
	t.Helper()
	files, sh, lay := buildBackendFiles(t, shards)
	fb, err := NewFileBackend(files, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fb.Close() })
	return fb, sh, lay
}

func readAllPages(t *testing.T, fb *FileBackend, sh *store.Sharded) {
	t.Helper()
	qp := fb.NewQueuePair()
	numPages := fb.NumPages()
	img := make([]byte, sh.PageSize())
	const batch = 16
	for base := 0; base < numPages; base += batch {
		now := fb.Frontier()
		n := 0
		for p := base; p < numPages && p < base+batch; p++ {
			issue := qp.Submit(PageID(p), now)
			if issue < now {
				t.Fatalf("page %d issued at %d, before now %d", p, issue, now)
			}
			n++
		}
		done, comps := qp.Drain(now)
		if done < now {
			t.Fatalf("drain returned %d, before now %d", done, now)
		}
		if len(comps) != n {
			t.Fatalf("drained %d completions, submitted %d", len(comps), n)
		}
		last := int64(-1)
		for _, c := range comps {
			if c.Err != nil {
				t.Fatalf("page %d: %v", c.Page, c.Err)
			}
			if c.Buf == nil {
				t.Fatalf("page %d: nil completion buffer", c.Page)
			}
			if c.CompleteNS < last {
				t.Fatal("completions not ordered by completion time")
			}
			last = c.CompleteNS
			if c.CompleteNS <= c.SubmitNS {
				t.Fatalf("page %d: completion %d not after submit %d", c.Page, c.CompleteNS, c.SubmitNS)
			}
			if err := sh.ReadPage(c.Page, img); err != nil {
				t.Fatal(err)
			}
			got := c.Buf.Bytes()
			if len(got) != len(img) {
				t.Fatalf("page %d: %d bytes, want %d", c.Page, len(got), len(img))
			}
			for i := range img {
				if got[i] != img[i] {
					t.Fatalf("page %d byte %d differs from in-memory store", c.Page, i)
				}
			}
			c.Buf.Release()
		}
	}
}

func TestFileBackendServesPages(t *testing.T) {
	for _, shards := range []int{1, 3} {
		fb, sh, _ := newTestFileBackend(t, shards, FileBackendConfig{ForcePread: true})
		readAllPages(t, fb, sh)
		st := fb.Stats()
		if st.Reads != int64(fb.NumPages()) {
			t.Errorf("shards=%d: %d reads recorded, want %d", shards, st.Reads, fb.NumPages())
		}
		if st.Errors != 0 {
			t.Errorf("shards=%d: %d errors", shards, st.Errors)
		}
		if fb.Frontier() == 0 {
			t.Errorf("shards=%d: frontier did not advance", shards)
		}
		if fb.LiveShards() != shards {
			t.Errorf("shards=%d: %d live shards", shards, fb.LiveShards())
		}
		lat := fb.ShardReadLatency(0)
		if lat.Count == 0 || lat.SumNS < 0 {
			t.Errorf("shards=%d: empty latency histogram", shards)
		}
	}
}

func TestFileBackendURingMatchesPread(t *testing.T) {
	fb, sh, _ := newTestFileBackend(t, 2, FileBackendConfig{})
	if fb.ExecutorKind() != "io_uring" {
		t.Skipf("io_uring unavailable here (executor %s)", fb.ExecutorKind())
	}
	readAllPages(t, fb, sh)
	if st := fb.Stats(); st.Errors != 0 || st.Reads != int64(fb.NumPages()) {
		t.Errorf("io_uring stats: %+v", st)
	}
}

func TestFileBackendStriping(t *testing.T) {
	fb, _, _ := newTestFileBackend(t, 3, FileBackendConfig{ForcePread: true})
	for p := PageID(0); int(p) < fb.NumPages(); p++ {
		shard, local := fb.ShardOf(p)
		if got := fb.GlobalOf(shard, local); got != p {
			t.Fatalf("GlobalOf(ShardOf(%d)) = %d", p, got)
		}
		if shard != int(p)%3 || local != p/3 {
			t.Fatalf("page %d routed to shard %d local %d", p, shard, local)
		}
	}
}

func TestFileBackendBufferRecycling(t *testing.T) {
	fb, _, _ := newTestFileBackend(t, 1, FileBackendConfig{ForcePread: true})
	qp := fb.NewQueuePair()
	seen := map[*PageBuf]bool{}
	// Many more batches than the queue depth's worth of buffers: the
	// working set must stay bounded by recycling.
	for round := 0; round < 50; round++ {
		now := fb.Frontier()
		for p := 0; p < 4; p++ {
			qp.Submit(PageID(p), now)
		}
		_, comps := qp.Drain(now)
		for _, c := range comps {
			seen[c.Buf] = true
			c.Buf.Release()
		}
	}
	if len(seen) > 8 {
		t.Errorf("%d distinct buffers for a working set of 4", len(seen))
	}
}

func TestFileBackendRetainKeepsBufferAlive(t *testing.T) {
	fb, sh, _ := newTestFileBackend(t, 1, FileBackendConfig{ForcePread: true})
	qp := fb.NewQueuePair()
	now := fb.Frontier()
	qp.Submit(0, now)
	_, comps := qp.Drain(now)
	buf := comps[0].Buf
	buf.Retain()
	buf.Release() // drainer's reference
	want, _ := sh.Shard(0).Page(0)
	got := buf.Bytes()
	if got == nil {
		t.Fatal("retained buffer lost its image")
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("byte %d differs under outstanding retain", i)
		}
	}
	buf.Release()
	if buf.Bytes() != nil {
		t.Error("fully released buffer still holds an image")
	}
}

func TestFileBackendReset(t *testing.T) {
	fb, sh, _ := newTestFileBackend(t, 2, FileBackendConfig{ForcePread: true})
	readAllPages(t, fb, sh)
	fb.Reset()
	if st := fb.Stats(); st.Reads != 0 {
		t.Errorf("stats survived reset: %+v", st)
	}
	if fb.Frontier() != 0 {
		t.Error("frontier survived reset")
	}
	if lat := fb.ShardReadLatency(0); lat.Count != 0 {
		t.Error("latency histogram survived reset")
	}
	// The backend must still serve after a reset.
	readAllPages(t, fb, sh)
}

func TestFileBackendConfigErrors(t *testing.T) {
	if _, err := NewFileBackend(nil, FileBackendConfig{}); err == nil {
		t.Error("empty file set accepted")
	}
	files, _, _ := buildBackendFiles(t, 3)
	// Shard 0 must hold the largest local page count; swapping the first
	// and last shard of an uneven stripe breaks the shape.
	if files[0].NumPages() > files[2].NumPages() {
		swapped := []*store.FileStore{files[2], files[1], files[0]}
		if _, err := NewFileBackend(swapped, FileBackendConfig{ForcePread: true}); err == nil {
			t.Error("misordered stripe accepted")
		}
	}
	fb, err := NewFileBackend(files, FileBackendConfig{ForcePread: true})
	if err != nil {
		t.Fatal(err)
	}
	fb.Close()
}

// TestFileLatHistSnapshotConsistent snapshots a read-latency histogram
// while reads land on it: every snapshot's Count must equal the sum of
// its bucket counts, and the final one must hold every read.
func TestFileLatHistSnapshotConsistent(t *testing.T) {
	var h latHist
	const writers, perWriter = 4, 20000
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				h.observe(int64(500 + (i*7919+w)%4_000_000))
			}
		}(w)
	}
	check := func(s ReadLatencySnapshot) {
		t.Helper()
		var sum int64
		for _, c := range s.Counts {
			sum += c
		}
		if s.Count != sum {
			t.Fatalf("Count %d, buckets sum to %d", s.Count, sum)
		}
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for snaps := 0; ; snaps++ {
		select {
		case <-done:
			s := h.snapshot()
			check(s)
			if s.Count != writers*perWriter {
				t.Fatalf("final Count %d, want %d", s.Count, writers*perWriter)
			}
			return
		default:
			check(h.snapshot())
		}
	}
}
