package ssd

import (
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"
)

func testProfile() Profile {
	return Profile{
		Name:        "test",
		PageSize:    4096,
		ReadLatency: 5 * time.Microsecond,
		Bandwidth:   4.096e9, // transfer time exactly 1 µs per page
		Channels:    8,       // 8/5µs = 1.6M IOPS ≥ bus rate: device is bus-bound
		QueueDepth:  8,
	}
}

func mustDevice(t *testing.T, p Profile) *Device {
	t.Helper()
	d, err := NewDevice(p)
	if err != nil {
		t.Fatalf("NewDevice: %v", err)
	}
	return d
}

func TestProfileValidate(t *testing.T) {
	good := testProfile()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid profile rejected: %v", err)
	}
	mutations := []func(*Profile){
		func(p *Profile) { p.PageSize = 0 },
		func(p *Profile) { p.ReadLatency = 0 },
		func(p *Profile) { p.Bandwidth = 0 },
		func(p *Profile) { p.Channels = 0 },
		func(p *Profile) { p.QueueDepth = 0 },
	}
	for i, m := range mutations {
		p := testProfile()
		m(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: invalid profile accepted", i)
		}
		if _, err := NewDevice(p); err == nil {
			t.Errorf("case %d: NewDevice accepted invalid profile", i)
		}
	}
}

func TestTransferTime(t *testing.T) {
	p := testProfile()
	if got := p.TransferTime(); got != time.Microsecond {
		t.Errorf("TransferTime = %v, want 1µs", got)
	}
}

func TestSingleReadLatency(t *testing.T) {
	d := mustDevice(t, testProfile())
	done, err := d.Read(0, 0)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	want := int64(5*time.Microsecond + time.Microsecond)
	if done != want {
		t.Errorf("completion = %d ns, want %d ns (latency+transfer)", done, want)
	}
}

func TestSameChannelSerializes(t *testing.T) {
	d := mustDevice(t, testProfile())
	// Pages 0 and 8 map to channel 0 with 8 channels.
	first, _ := d.Read(0, 0)
	second, _ := d.Read(8, 0)
	if second <= first {
		t.Errorf("same-channel reads did not serialize: %d then %d", first, second)
	}
	// The second read starts only after the first vacates the channel
	// (latency); its transfer then follows immediately since the bus is
	// already free by then.
	lat := int64(5 * time.Microsecond)
	xfer := int64(time.Microsecond)
	if want := 2*lat + xfer; second != want {
		t.Errorf("second completion = %d, want %d", second, want)
	}
}

func TestDifferentChannelsOverlap(t *testing.T) {
	d := mustDevice(t, testProfile())
	a, _ := d.Read(0, 0) // channel 0
	b, _ := d.Read(1, 0) // channel 1
	lat := int64(5 * time.Microsecond)
	xfer := int64(time.Microsecond)
	if a != lat+xfer {
		t.Errorf("first completion = %d, want %d", a, lat+xfer)
	}
	// Latencies overlap; only the bus serializes.
	if want := lat + 2*xfer; b != want {
		t.Errorf("second completion = %d, want %d", b, want)
	}
}

func TestBandwidthBound(t *testing.T) {
	// Submit many reads across all channels at time zero; aggregate
	// throughput must approach but never exceed the profile bandwidth.
	p := testProfile()
	d := mustDevice(t, p)
	const n = 1000
	var last int64
	for i := 0; i < n; i++ {
		done, _ := d.Read(PageID(i), 0)
		if done > last {
			last = done
		}
	}
	bytes := float64(n * p.PageSize)
	seconds := float64(last) / float64(time.Second)
	bw := bytes / seconds
	if bw > p.Bandwidth*1.001 {
		t.Errorf("achieved bandwidth %.3e exceeds cap %.3e", bw, p.Bandwidth)
	}
	if bw < p.Bandwidth*0.9 {
		t.Errorf("achieved bandwidth %.3e well below cap %.3e under full load", bw, p.Bandwidth)
	}
}

func TestCompletionMonotonicWithSubmitTime(t *testing.T) {
	// Property: for a single page stream, completion never precedes
	// submission + latency + transfer.
	d := mustDevice(t, testProfile())
	rng := rand.New(rand.NewSource(3))
	minCost := int64(5*time.Microsecond + time.Microsecond)
	now := int64(0)
	for i := 0; i < 500; i++ {
		now += int64(rng.Intn(3000))
		done, _ := d.Read(PageID(rng.Intn(64)), now)
		if done < now+minCost {
			t.Fatalf("read %d: completion %d < submit %d + min cost %d", i, done, now, minCost)
		}
	}
}

func TestStatsAndReset(t *testing.T) {
	d := mustDevice(t, testProfile())
	for i := 0; i < 10; i++ {
		if _, err := d.Read(PageID(i), 0); err != nil {
			t.Fatal(err)
		}
	}
	s := d.Stats()
	if s.Reads != 10 {
		t.Errorf("Reads = %d, want 10", s.Reads)
	}
	if s.BytesRead != 10*4096 {
		t.Errorf("BytesRead = %d, want %d", s.BytesRead, 10*4096)
	}
	if s.BusyNS <= 0 {
		t.Error("BusyNS not accumulated")
	}
	d.Reset()
	if s := d.Stats(); s.Reads != 0 || s.BytesRead != 0 || s.BusyNS != 0 {
		t.Errorf("stats after Reset = %+v", s)
	}
	// After reset, timing restarts from idle.
	done, _ := d.Read(0, 0)
	if want := int64(6 * time.Microsecond); done != want {
		t.Errorf("post-reset completion = %d, want %d", done, want)
	}
}

func TestFaultInjection(t *testing.T) {
	d := mustDevice(t, testProfile())
	d.SetFaultInjector(FailEveryN(3))
	var fails int
	for i := 0; i < 9; i++ {
		_, err := d.Read(PageID(i), 0)
		if err != nil {
			if !errors.Is(err, ErrReadFailed) {
				t.Errorf("error not ErrReadFailed: %v", err)
			}
			fails++
		}
	}
	if fails != 3 {
		t.Errorf("fails = %d, want 3", fails)
	}
	if s := d.Stats(); s.Errors != 3 {
		t.Errorf("Stats.Errors = %d, want 3", s.Errors)
	}
	d.SetFaultInjector(nil)
	if _, err := d.Read(0, 0); err != nil {
		t.Errorf("read failed after clearing injector: %v", err)
	}
}

func TestConcurrentReads(t *testing.T) {
	d := mustDevice(t, testProfile())
	var wg sync.WaitGroup
	const workers, per = 8, 200
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			now := int64(0)
			for i := 0; i < per; i++ {
				done, _ := d.Read(PageID(w*per+i), now)
				now = done
			}
		}(w)
	}
	wg.Wait()
	if s := d.Stats(); s.Reads != workers*per {
		t.Errorf("Reads = %d, want %d", s.Reads, workers*per)
	}
}

func TestBuiltinProfiles(t *testing.T) {
	for _, p := range []Profile{P5800X, P4510} {
		if err := p.Validate(); err != nil {
			t.Errorf("profile %s invalid: %v", p.Name, err)
		}
	}
	if P4510.ReadLatency <= P5800X.ReadLatency {
		t.Error("NAND P4510 should have higher latency than Optane P5800X")
	}
}

func TestWritePath(t *testing.T) {
	d := mustDevice(t, testProfile())
	done := d.Write(0, 0)
	// Default write latency = 2× read latency; write bandwidth = half read
	// bandwidth, so transfer = 2 µs; transfer precedes program.
	want := int64(2*time.Microsecond + 10*time.Microsecond)
	if done != want {
		t.Errorf("write completion = %d, want %d", done, want)
	}
	s := d.Stats()
	if s.Writes != 1 || s.BytesWritten != 4096 {
		t.Errorf("write stats = %+v", s)
	}
	// Writes and reads share channel state: a read on the written page's
	// channel must queue behind the program.
	readDone, _ := d.Read(0, 0)
	if readDone <= done {
		t.Errorf("read at %d did not queue behind write finishing at %d", readDone, done)
	}
	d.Reset()
	if s := d.Stats(); s.Writes != 0 || s.BytesWritten != 0 {
		t.Errorf("stats after reset: %+v", s)
	}
}

func TestWriteProfileOverrides(t *testing.T) {
	p := testProfile()
	p.WriteLatency = 3 * time.Microsecond
	p.WriteBandwidth = p.Bandwidth // as fast as reads
	d := mustDevice(t, p)
	done := d.Write(0, 0)
	if want := int64(time.Microsecond + 3*time.Microsecond); done != want {
		t.Errorf("write completion = %d, want %d", done, want)
	}
}

func TestWriteBandwidthBound(t *testing.T) {
	p := testProfile()
	d := mustDevice(t, p)
	const n = 500
	var last int64
	for i := 0; i < n; i++ {
		if c := d.Write(PageID(i), 0); c > last {
			last = c
		}
	}
	bw := float64(n*p.PageSize) / (float64(last) / float64(time.Second))
	if cap := p.Bandwidth / 2; bw > cap*1.001 {
		t.Errorf("write bandwidth %.3e exceeds cap %.3e", bw, cap)
	}
}
