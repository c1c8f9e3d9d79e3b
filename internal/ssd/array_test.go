package ssd

import (
	"errors"
	"math/rand"
	"testing"
	"time"
)

func mustArray(t *testing.T, p Profile, n int) *Array {
	t.Helper()
	a, err := NewArray(p, n)
	if err != nil {
		t.Fatalf("NewArray: %v", err)
	}
	return a
}

func TestArrayValidation(t *testing.T) {
	if _, err := NewArray(testProfile(), 0); err == nil {
		t.Error("NewArray accepted n=0")
	}
	if _, err := NewArrayOf(nil); err == nil {
		t.Error("NewArrayOf accepted empty device list")
	}
	small := testProfile()
	small.PageSize = 512
	a := mustDevice(t, testProfile())
	b := mustDevice(t, small)
	if _, err := NewArrayOf([]*Device{a, b}); err == nil {
		t.Error("NewArrayOf accepted mismatched page sizes")
	}
}

func TestArrayAggregateProfile(t *testing.T) {
	base := testProfile()
	arr := mustArray(t, base, 4)
	p := arr.Profile()
	if p.Bandwidth != 4*base.Bandwidth {
		t.Errorf("Bandwidth = %v, want 4x base", p.Bandwidth)
	}
	if p.Channels != 4*base.Channels {
		t.Errorf("Channels = %d, want 4x base", p.Channels)
	}
	if p.QueueDepth != 4*base.QueueDepth {
		t.Errorf("QueueDepth = %d, want 4x base", p.QueueDepth)
	}
	if p.ReadLatency != base.ReadLatency {
		t.Errorf("ReadLatency changed: %v", p.ReadLatency)
	}
	if p.Name != "Array-4xtest" {
		t.Errorf("Name = %q", p.Name)
	}
	// A one-device array is just that device: the profile is untouched.
	if got := mustArray(t, base, 1).Profile(); got != base {
		t.Errorf("1-device array profile = %+v, want base", got)
	}
}

func TestArrayStripingRoundTrip(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4} {
		arr := mustArray(t, testProfile(), n)
		for p := PageID(0); p < 100; p++ {
			shard, local := arr.ShardOf(p)
			if want := int(p) % n; shard != want {
				t.Fatalf("n=%d ShardOf(%d) shard = %d, want %d", n, p, shard, want)
			}
			if want := p / PageID(n); local != want {
				t.Fatalf("n=%d ShardOf(%d) local = %d, want %d", n, p, local, want)
			}
			if back := arr.GlobalOf(shard, local); back != p {
				t.Fatalf("n=%d GlobalOf(ShardOf(%d)) = %d", n, p, back)
			}
		}
	}
}

// TestArrayOneShardMatchesDevice pins the N=1 degenerate case: a MultiQueue
// over a one-device array must behave bit-identically to a bare Queue over
// a bare Device — same issue times, same drain times, same completions in
// the same order, same device statistics.
func TestArrayOneShardMatchesDevice(t *testing.T) {
	prof := testProfile()
	dev := mustDevice(t, prof)
	arr := mustArray(t, prof, 1)
	q := NewQueue(dev)
	mq := NewMultiQueue(arr)

	rng := rand.New(rand.NewSource(11))
	now := int64(0)
	for round := 0; round < 20; round++ {
		for i := 0; i < 30; i++ {
			now += int64(rng.Intn(2000))
			page := PageID(rng.Intn(256))
			a := q.Submit(page, now)
			b := mq.Submit(page, now)
			if a != b {
				t.Fatalf("round %d: issue times diverge: %d vs %d", round, a, b)
			}
		}
		da, ca := q.Drain(now)
		db, cb := mq.Drain(now)
		if da != db {
			t.Fatalf("round %d: drain times diverge: %d vs %d", round, da, db)
		}
		if len(ca) != len(cb) {
			t.Fatalf("round %d: completion counts diverge: %d vs %d", round, len(ca), len(cb))
		}
		for i := range ca {
			if ca[i] != cb[i] {
				t.Fatalf("round %d completion %d: %+v vs %+v", round, i, ca[i], cb[i])
			}
		}
		now = da
	}
	if ds, as := dev.Stats(), arr.Stats(); ds != as {
		t.Errorf("stats diverge: device %+v, array %+v", ds, as)
	}
}

// TestArrayChannelMappingUsesLocalPage pins the non-aliasing property: each
// member device hashes its LOCAL page onto channels. Sixteen pages of one
// shard of a 4-device array (global pages ≡ 0 mod 4) have local addresses
// 0..15, which land on 16 distinct channels; the drain time is exactly one
// read latency plus 16 serialized bus transfers. Mapping the global page
// instead would fold those pages onto 4 channels (gcd aliasing) and push
// the drain time out by several channel-serialization rounds.
func TestArrayChannelMappingUsesLocalPage(t *testing.T) {
	prof := testProfile()
	prof.Channels = 16
	prof.QueueDepth = 32
	arr := mustArray(t, prof, 4)
	mq := NewMultiQueue(arr)
	for i := 0; i < 16; i++ {
		mq.Submit(PageID(4*i), 0) // all shard 0, local pages 0..15
	}
	done, comps := mq.Drain(0)
	lat := int64(prof.ReadLatency)
	xfer := int64(prof.TransferTime())
	if want := lat + 16*xfer; done != want {
		t.Errorf("drain = %d ns, want %d (latency + 16 bus transfers; channel aliasing?)", done, want)
	}
	for _, c := range comps {
		if shard, _ := arr.ShardOf(c.Page); shard != 0 {
			t.Errorf("page %d drained from shard %d, want 0", c.Page, shard)
		}
	}
	// Only shard 0 did any work.
	ss := arr.ShardStats()
	if ss[0].Reads != 16 {
		t.Errorf("shard 0 reads = %d, want 16", ss[0].Reads)
	}
	for i := 1; i < 4; i++ {
		if ss[i].Reads != 0 {
			t.Errorf("idle shard %d has %d reads", i, ss[i].Reads)
		}
	}
}

// TestArrayBalancedScaling checks the opposite regime: a balanced load over
// n devices drains in roughly 1/n the time of one device.
func TestArrayBalancedScaling(t *testing.T) {
	prof := testProfile()
	const reads = 256
	var base int64
	for _, n := range []int{1, 2, 4} {
		arr := mustArray(t, prof, n)
		mq := NewMultiQueue(arr)
		for i := 0; i < reads; i++ {
			mq.Submit(PageID(i), 0)
		}
		done, comps := mq.Drain(0)
		if len(comps) != reads {
			t.Fatalf("n=%d: %d completions, want %d", n, len(comps), reads)
		}
		if n == 1 {
			base = done
			continue
		}
		speedup := float64(base) / float64(done)
		if speedup < 0.8*float64(n) {
			t.Errorf("n=%d: speedup %.2fx, want ≥ %.2fx", n, speedup, 0.8*float64(n))
		}
	}
}

// failAllModel fails every read unconditionally.
type failAllModel struct{}

func (failAllModel) Judge(int64, PageID) Fault { return Fault{Err: ErrReadFailed} }

func TestArrayShardFaultIsolation(t *testing.T) {
	arr := mustArray(t, testProfile(), 2)
	arr.SetShardFaultModel(0, failAllModel{})
	mq := NewMultiQueue(arr)
	for p := PageID(0); p < 16; p++ {
		mq.Submit(p, 0)
	}
	_, comps := mq.Drain(0)
	if len(comps) != 16 {
		t.Fatalf("completions = %d, want 16", len(comps))
	}
	for _, c := range comps {
		onFaulty := c.Page%2 == 0
		if onFaulty && !errors.Is(c.Err, ErrReadFailed) {
			t.Errorf("page %d on faulty shard: err = %v, want ErrReadFailed", c.Page, c.Err)
		}
		if !onFaulty && c.Err != nil {
			t.Errorf("page %d on healthy shard failed: %v", c.Page, c.Err)
		}
	}
	ss := arr.ShardStats()
	if ss[0].Errors != 8 {
		t.Errorf("faulty shard errors = %d, want 8", ss[0].Errors)
	}
	if ss[1].Errors != 0 {
		t.Errorf("healthy shard errors = %d, want 0", ss[1].Errors)
	}
	if got := arr.Stats().Errors; got != 8 {
		t.Errorf("aggregate errors = %d, want 8", got)
	}
	// Clearing the model restores the shard.
	arr.SetShardFaultModel(0, nil)
	arr.Reset()
	mq = NewMultiQueue(arr)
	mq.Submit(0, 0)
	if _, comps := mq.Drain(0); comps[0].Err != nil {
		t.Errorf("read failed after clearing shard fault model: %v", comps[0].Err)
	}
}

func TestMultiQueueShardAccounting(t *testing.T) {
	arr := mustArray(t, testProfile(), 2)
	mq := NewMultiQueue(arr)
	if mq.NumShards() != 2 {
		t.Fatalf("NumShards = %d", mq.NumShards())
	}
	// Three reads on shard 0, one on shard 1, all at t=0.
	for _, p := range []PageID{0, 2, 4, 1} {
		mq.Submit(p, 0)
	}
	if got := mq.ShardOutstanding(0, 0); got != 3 {
		t.Errorf("shard 0 outstanding = %d, want 3", got)
	}
	if got := mq.ShardOutstanding(1, 0); got != 1 {
		t.Errorf("shard 1 outstanding = %d, want 1", got)
	}
	if got := mq.Outstanding(0); got != 4 {
		t.Errorf("total outstanding = %d, want 4", got)
	}
	done, comps := mq.Drain(0)
	if len(comps) != 4 {
		t.Fatalf("completions = %d, want 4", len(comps))
	}
	for i := 1; i < len(comps); i++ {
		prev, cur := comps[i-1], comps[i]
		if cur.CompleteNS < prev.CompleteNS ||
			(cur.CompleteNS == prev.CompleteNS && cur.Page < prev.Page) {
			t.Errorf("completions not ordered: %+v before %+v", prev, cur)
		}
	}
	if mq.Outstanding(done) != 0 {
		t.Error("outstanding after drain")
	}
	if mq.HighWater(0) != 3 || mq.HighWater(1) != 1 {
		t.Errorf("high-water = (%d, %d), want (3, 1)", mq.HighWater(0), mq.HighWater(1))
	}
	if ss := arr.ShardStats(); ss[0].Reads != 3 || ss[1].Reads != 1 {
		t.Errorf("shard reads = (%d, %d), want (3, 1)", ss[0].Reads, ss[1].Reads)
	}
}

func TestArrayFrontierAndReset(t *testing.T) {
	arr := mustArray(t, testProfile(), 2)
	mq := NewMultiQueue(arr)
	mq.Submit(0, 0)
	mq.Submit(1, 0)
	done, _ := mq.Drain(0)
	if f := arr.Frontier(); f < done {
		t.Errorf("frontier %d below drain time %d", f, done)
	}
	arr.Reset()
	if f := arr.Frontier(); f != 0 {
		t.Errorf("frontier after reset = %d", f)
	}
	if s := arr.Stats(); s.Reads != 0 {
		t.Errorf("stats after reset = %+v", s)
	}
	// Post-reset timing restarts from idle, like a bare device.
	mq = NewMultiQueue(arr)
	mq.Submit(0, 0)
	done, _ = mq.Drain(0)
	if want := int64(6 * time.Microsecond); done != want {
		t.Errorf("post-reset completion = %d, want %d", done, want)
	}
}
