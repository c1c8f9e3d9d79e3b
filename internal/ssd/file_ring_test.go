package ssd

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"testing"
)

// ringCounts sums io_uring_enter calls over the backend's rings and
// reports how many rings exist and how many are idle.
func ringCounts(fb *FileBackend) (enters, rings, idle int) {
	p := fb.rings
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, r := range p.all {
		enters += r.enters
	}
	return enters, len(p.all), len(p.idle)
}

// submitDrain reads pages through qp as one batch, checks every completion
// arrived, and releases the buffers of the successful ones.
func submitDrain(t *testing.T, qp QueuePair, pages []PageID) []Completion {
	t.Helper()
	now := int64(0)
	for _, p := range pages {
		qp.Submit(p, now)
	}
	_, comps := qp.Drain(now)
	if len(comps) != len(pages) {
		t.Fatalf("drained %d completions for %d submissions", len(comps), len(pages))
	}
	for _, c := range comps {
		if c.Buf != nil {
			c.Buf.Release()
		}
	}
	return comps
}

func TestFileQueueOneEnterPerDrain(t *testing.T) {
	files, _, _ := buildBackendFilesN(t, 4, 8000)
	fb, err := NewFileBackend(files, FileBackendConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer fb.Close()
	if fb.ExecutorKind() != "io_uring" {
		t.Skipf("io_uring unavailable here (executor %s)", fb.ExecutorKind())
	}
	qp := fb.NewQueuePair()
	pages := make([]PageID, 25)
	for i := range pages {
		pages[i] = PageID(i * 5)
	}
	for round := 0; round < 3; round++ {
		e0, _, _ := ringCounts(fb)
		now := fb.Frontier()
		for _, p := range pages {
			qp.Submit(p, now)
		}
		if e, _, _ := ringCounts(fb); e != e0 {
			t.Fatalf("round %d: Submit made %d io_uring_enter calls, want 0", round, e-e0)
		}
		_, comps := qp.Drain(now)
		for _, c := range comps {
			if c.Err != nil {
				t.Fatalf("page %d: %v", c.Page, c.Err)
			}
			c.Buf.Release()
		}
		if e, _, _ := ringCounts(fb); e-e0 != 1 {
			t.Fatalf("round %d: Drain made %d io_uring_enter calls, want 1", round, e-e0)
		}
	}
	if _, rings, idle := ringCounts(fb); rings != 1 || idle != 1 {
		t.Errorf("one sequential queue pair: %d rings, %d idle; want 1, 1", rings, idle)
	}
}

// TestFileBackendTruncatedShard cuts a shard file short after open: the
// reads past the cut must fail — exactly those pages, each counted as a
// device error — while the ring returns to the pool and every completion
// buffer returns to its freelist.
func TestFileBackendTruncatedShard(t *testing.T) {
	for _, force := range []bool{false, true} {
		t.Run(fmt.Sprintf("pread=%v", force), func(t *testing.T) {
			files, _, _ := buildBackendFilesN(t, 2, 8000)
			fb, err := NewFileBackend(files, FileBackendConfig{ForcePread: force})
			if err != nil {
				t.Fatal(err)
			}
			defer fb.Close()
			if !force && fb.ExecutorKind() != "io_uring" {
				t.Skipf("io_uring unavailable here (executor %s)", fb.ExecutorKind())
			}
			const cut = 20 // shard 0 keeps local pages [0, cut)
			off, _, pageOff, err := files[0].PageSpan(cut)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(files[0].File().Name(), off+int64(pageOff)); err != nil {
				t.Fatal(err)
			}
			pages := make([]PageID, fb.NumPages())
			for i := range pages {
				pages[i] = PageID(i)
			}
			comps := submitDrain(t, fb.NewQueuePair(), pages)
			failed := 0
			for _, c := range comps {
				shard, local := fb.ShardOf(c.Page)
				lost := shard == 0 && local >= cut
				if lost != (c.Err != nil) {
					t.Fatalf("page %d (shard %d local %d): err %v", c.Page, shard, local, c.Err)
				}
				if lost {
					failed++
					if !errors.Is(c.Err, io.ErrUnexpectedEOF) && !errors.Is(c.Err, io.EOF) {
						t.Errorf("page %d: %v, want a short read", c.Page, c.Err)
					}
					if c.Buf != nil {
						t.Fatalf("page %d: failed read carries a buffer", c.Page)
					}
				}
			}
			if failed == 0 {
				t.Fatal("truncation failed no reads")
			}
			if st := fb.Stats(); st.Errors != int64(failed) {
				t.Errorf("Stats().Errors = %d, want %d", st.Errors, failed)
			}
			for s := range fb.free {
				if n, want := len(fb.free[s]), files[s].NumPages(); n != want {
					t.Errorf("shard %d freelist holds %d buffers, want all %d back", s, n, want)
				}
			}
			if !force {
				if _, rings, idle := ringCounts(fb); idle != rings {
					t.Errorf("%d of %d rings idle after the drain", idle, rings)
				}
			}
		})
	}
}

// TestFileQueuePairsConcurrent runs 32 queue pairs at once, each
// verifying its pages byte for byte; run it under -race.
func TestFileQueuePairsConcurrent(t *testing.T) {
	for _, force := range []bool{false, true} {
		t.Run(fmt.Sprintf("pread=%v", force), func(t *testing.T) {
			files, sh, _ := buildBackendFilesN(t, 4, 4000)
			fb, err := NewFileBackend(files, FileBackendConfig{ForcePread: force})
			if err != nil {
				t.Fatal(err)
			}
			defer fb.Close()
			hammer(t, fb, sh.PageSize(), func(p PageID, img []byte) error { return sh.ReadPage(p, img) })
			if st := fb.Stats(); st.Errors != 0 {
				t.Errorf("%d read errors", st.Errors)
			}
			if fb.rings != nil {
				if _, rings, idle := ringCounts(fb); idle != rings || rings < 2 {
					t.Errorf("%d rings, %d idle: want several, all idle", rings, idle)
				}
			}
		})
	}
}

// hammer drives 32 queue pairs concurrently over fb, checking every page
// image against want.
func hammer(t *testing.T, fb *FileBackend, pageSize int, want func(PageID, []byte) error) {
	t.Helper()
	const pairs, rounds, batch = 32, 20, 9
	var wg sync.WaitGroup
	errc := make(chan error, pairs)
	for w := 0; w < pairs; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			qp := fb.NewQueuePair()
			img := make([]byte, pageSize)
			for r := 0; r < rounds; r++ {
				now := fb.Frontier()
				for i := 0; i < batch; i++ {
					qp.Submit(PageID((w*31+r*7+i*13)%fb.NumPages()), now)
				}
				_, comps := qp.Drain(now)
				for _, c := range comps {
					if c.Err != nil {
						errc <- fmt.Errorf("page %d: %w", c.Page, c.Err)
						return
					}
					if err := want(c.Page, img); err != nil {
						errc <- err
						return
					}
					if !bytes.Equal(c.Buf.Bytes(), img) {
						errc <- fmt.Errorf("queue pair %d: page %d image differs", w, c.Page)
						return
					}
					c.Buf.Release()
				}
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}

// TestFileBackendCloseReleasesRings checks Close gives back every
// descriptor the backend held — each ring's, and the shard files' —
// after concurrent queue pairs made it grow several rings.
func TestFileBackendCloseReleasesRings(t *testing.T) {
	openFDs := func() int {
		ents, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Skipf("no /proc/self/fd: %v", err)
		}
		return len(ents)
	}
	before := openFDs()
	files, sh, _ := buildBackendFilesN(t, 4, 4000)
	fb, err := NewFileBackend(files, FileBackendConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if fb.ExecutorKind() != "io_uring" {
		fb.Close()
		t.Skipf("io_uring unavailable here (executor %s)", fb.ExecutorKind())
	}
	hammer(t, fb, sh.PageSize(), func(p PageID, img []byte) error { return sh.ReadPage(p, img) })
	_, rings, _ := ringCounts(fb)
	if during := openFDs(); during < before+len(files)+rings {
		t.Fatalf("%d fds open with %d files and %d rings, %d before", during, len(files), rings, before)
	}
	if err := fb.Close(); err != nil {
		t.Fatal(err)
	}
	if after := openFDs(); after != before {
		t.Errorf("%d fds open after Close, %d before (%d rings)", after, before, rings)
	}
}
