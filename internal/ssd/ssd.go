// Package ssd provides a discrete-event simulated NVMe solid-state drive.
//
// The paper evaluates on real Intel Optane P5800X / P4510 drives accessed
// through the SPDK user-space driver. Neither the hardware nor SPDK is
// available to this reproduction, so the device is modelled instead: every
// page read is charged a device-internal access latency on one of several
// parallel channels plus a serialized transfer slot bounded by the drive's
// read bandwidth. All of the paper's results are functions of page-read
// counts, device latency/bandwidth, and software overhead, which this model
// reproduces; see DESIGN.md §2.
//
// Time is virtual: callers carry their own clocks in nanoseconds and the
// device answers "when would this read complete?". The asynchronous Queue
// type mirrors SPDK's queue-pair submit/poll interface so the online
// phase's pipelining (§6.2) exercises the same code structure it would
// against real hardware.
package ssd

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// PageID identifies a 4 KiB page on the device.
type PageID = uint32

// Profile describes a device's performance characteristics.
type Profile struct {
	// Name labels the device in reports.
	Name string
	// PageSize is the read granularity in bytes (typically 4096).
	PageSize int
	// ReadLatency is the device-internal access latency per page read.
	ReadLatency time.Duration
	// Bandwidth is the maximum sustained read bandwidth in bytes/second.
	Bandwidth float64
	// Channels is the device's internal parallelism: reads on different
	// channels overlap, reads on the same channel serialize.
	Channels int
	// QueueDepth is the maximum outstanding commands per Queue.
	QueueDepth int
	// WriteLatency is the device-internal program latency per page write;
	// zero derives 2× ReadLatency (program is slower than read on every
	// flash/PMem generation).
	WriteLatency time.Duration
	// WriteBandwidth is the maximum sustained write bandwidth in
	// bytes/second; zero derives half of the read Bandwidth.
	WriteBandwidth float64
}

// writeLatency returns the effective write latency.
func (p Profile) writeLatency() time.Duration {
	if p.WriteLatency > 0 {
		return p.WriteLatency
	}
	return 2 * p.ReadLatency
}

// writeBandwidth returns the effective write bandwidth.
func (p Profile) writeBandwidth() float64 {
	if p.WriteBandwidth > 0 {
		return p.WriteBandwidth
	}
	return p.Bandwidth / 2
}

// WriteTransferTime returns the bus-serialization time of one page write.
func (p Profile) WriteTransferTime() time.Duration {
	return time.Duration(float64(p.PageSize) / p.writeBandwidth() * float64(time.Second))
}

// Validate reports an error for out-of-range profile parameters.
func (p Profile) Validate() error {
	switch {
	case p.PageSize <= 0:
		return fmt.Errorf("ssd: profile %q: PageSize must be positive", p.Name)
	case p.ReadLatency <= 0:
		return fmt.Errorf("ssd: profile %q: ReadLatency must be positive", p.Name)
	case p.Bandwidth <= 0:
		return fmt.Errorf("ssd: profile %q: Bandwidth must be positive", p.Name)
	case p.Channels <= 0:
		return fmt.Errorf("ssd: profile %q: Channels must be positive", p.Name)
	case p.QueueDepth <= 0:
		return fmt.Errorf("ssd: profile %q: QueueDepth must be positive", p.Name)
	}
	return nil
}

// TransferTime returns the bus-serialization time of one page.
func (p Profile) TransferTime() time.Duration {
	return time.Duration(float64(p.PageSize) / p.Bandwidth * float64(time.Second))
}

// Built-in device profiles. Latency and bandwidth follow the public
// specifications of the drives the paper uses; channel counts are chosen so
// that latency × achievable IOPS matches the drives' rated concurrency.
var (
	// P5800X models the Intel Optane SSD P5800X (§8.1 default device):
	// ~5 µs read latency, ~6.5 GB/s sustained random read.
	P5800X = Profile{
		Name:        "P5800X",
		PageSize:    4096,
		ReadLatency: 5 * time.Microsecond,
		Bandwidth:   6.5e9,
		Channels:    16,
		QueueDepth:  128,
	}

	// P4510 models the Intel SSD P4510 (NAND TLC, Fig 17b): ~80 µs read
	// latency, ~2.6 GB/s 4K random read, deep internal parallelism.
	P4510 = Profile{
		Name:        "P4510",
		PageSize:    4096,
		ReadLatency: 80 * time.Microsecond,
		Bandwidth:   2.6e9,
		Channels:    64,
		QueueDepth:  256,
	}
)

// Stats aggregates device activity since construction or the last Reset.
type Stats struct {
	// Reads is the number of page reads completed.
	Reads int64
	// BytesRead is Reads × PageSize.
	BytesRead int64
	// BusyNS is the total channel-occupancy in virtual nanoseconds,
	// summed over channels.
	BusyNS int64
	// Errors is the number of reads that failed via fault injection
	// (ErrReadFailed and ErrTimeout alike).
	Errors int64
	// Timeouts is the subset of Errors that were stuck commands.
	Timeouts int64
	// Corruptions is the number of reads that completed successfully but
	// delivered a corrupted payload.
	Corruptions int64
	// InjectedLatencyNS is the total extra device occupancy charged by
	// injected latency spikes, slow channels, and stuck commands.
	InjectedLatencyNS int64
	// Writes is the number of page writes completed; BytesWritten is
	// Writes × PageSize.
	Writes       int64
	BytesWritten int64
}

// Faults returns the total number of injected faults the reader must
// account for: failed commands plus silently corrupted payloads.
func (s Stats) Faults() int64 { return s.Errors + s.Corruptions }

// Device is a simulated SSD. It is safe for concurrent use by multiple
// queues; state is protected by a mutex, mirroring the hardware arbitration
// point real queues contend on.
type Device struct {
	prof Profile

	mu          sync.Mutex
	channelFree []int64 // virtual ns at which each channel is next idle
	busFree     int64   // virtual ns at which the transfer bus is next idle
	stats       Stats
	readSeq     int64
	faults      FaultModel
	observer    func(faulted bool) // read-outcome tap feeding shard health
}

// setReadObserver installs (or clears, with nil) a per-read outcome tap.
// An Array wires each member here so every read feeds that shard's health
// window; re-wiring is how a rebuilt array adopts surviving devices.
func (d *Device) setReadObserver(fn func(faulted bool)) {
	d.mu.Lock()
	d.observer = fn
	d.mu.Unlock()
}

// NewDevice returns a device with the given profile.
func NewDevice(prof Profile) (*Device, error) {
	if err := prof.Validate(); err != nil {
		return nil, err
	}
	return &Device{
		prof:        prof,
		channelFree: make([]int64, prof.Channels),
	}, nil
}

// Profile returns the device's profile.
func (d *Device) Profile() Profile { return d.prof }

// SetFaultInjector installs (or clears, with nil) a legacy pass/fail fault
// injector. Prefer SetFaultModel for the full fault taxonomy.
func (d *Device) SetFaultInjector(f FaultInjector) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if f == nil {
		d.faults = nil
		return
	}
	d.faults = legacyModel{inj: f}
}

// SetFaultModel installs (or clears, with nil) a fault model consulted on
// every read.
func (d *Device) SetFaultModel(m FaultModel) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.faults = m
}

// Read simulates a page read submitted at virtual time submitNS and returns
// the virtual completion time. err is non-nil only under fault injection.
// See ReadDetailed for the full fault outcome (corruption, spikes).
func (d *Device) Read(page PageID, submitNS int64) (completeNS int64, err error) {
	completeNS, f := d.ReadDetailed(page, submitNS)
	return completeNS, f.Err
}

// ReadDetailed simulates a page read submitted at virtual time submitNS and
// returns the virtual completion time plus the injected fault outcome. The
// page's channel is page mod Channels; the read occupies the channel for
// ReadLatency (plus any injected spike/timeout occupancy) and then a
// serialized bus slot of TransferTime, which is what bounds aggregate
// bandwidth. The timing cost is charged even for failed commands, as a
// failed NVMe command still occupies the device.
func (d *Device) ReadDetailed(page PageID, submitNS int64) (completeNS int64, fault Fault) {
	lat := int64(d.prof.ReadLatency)
	xfer := int64(d.prof.TransferTime())

	d.mu.Lock()
	d.readSeq++
	n := d.readSeq
	if d.faults != nil {
		fault = d.faults.Judge(n, page)
	}
	ch := int(page) % len(d.channelFree)
	start := submitNS
	if d.channelFree[ch] > start {
		start = d.channelFree[ch]
	}
	readEnd := start + lat + fault.ExtraLatencyNS
	d.channelFree[ch] = readEnd
	xferStart := readEnd
	if d.busFree > xferStart {
		xferStart = d.busFree
	}
	completeNS = xferStart + xfer
	d.busFree = completeNS
	d.stats.Reads++
	d.stats.BytesRead += int64(d.prof.PageSize)
	d.stats.BusyNS += readEnd - start
	d.stats.InjectedLatencyNS += fault.ExtraLatencyNS
	if fault.Err != nil {
		d.stats.Errors++
		if errors.Is(fault.Err, ErrTimeout) {
			d.stats.Timeouts++
		}
	} else if fault.Corrupt {
		d.stats.Corruptions++
	}
	obs := d.observer
	d.mu.Unlock()

	if obs != nil {
		obs(fault.Err != nil || fault.Corrupt)
	}
	if fault.Err != nil {
		fault.Err = fmt.Errorf("%w: page %d (read #%d)", fault.Err, page, n)
	}
	return completeNS, fault
}

// recordExternalRead folds one measured real-I/O read into the device's
// statistics and health window. The file backend's shard shells route
// their pread/io_uring outcomes here so /v1/stats, shard stats, and the
// health machinery observe real hardware exactly as they observe the
// simulation: busyNS is the measured service time of the read, err/corrupt
// the outcome the health window scores.
func (d *Device) recordExternalRead(busyNS int64, err error, corrupt bool) {
	d.mu.Lock()
	d.readSeq++
	d.stats.Reads++
	d.stats.BytesRead += int64(d.prof.PageSize)
	d.stats.BusyNS += busyNS
	if err != nil {
		d.stats.Errors++
		if errors.Is(err, ErrTimeout) {
			d.stats.Timeouts++
		}
	} else if corrupt {
		d.stats.Corruptions++
	}
	obs := d.observer
	d.mu.Unlock()
	if obs != nil {
		obs(err != nil || corrupt)
	}
}

// Frontier returns the latest virtual time at which any device resource
// becomes idle. A virtual clock that starts at the frontier observes an
// idle device; one that starts earlier would be (correctly) queued behind
// in-flight work from other clocks.
func (d *Device) Frontier() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	f := d.busFree
	for _, t := range d.channelFree {
		if t > f {
			f = t
		}
	}
	return f
}

// Write simulates a page write (program) submitted at virtual time
// submitNS and returns the virtual completion time. Writes share the
// channel and bus resources with reads, at the profile's (slower) write
// latency and bandwidth. The serving path never writes; the offline
// deployment of a layout does, which is how replication's extra space
// also costs write time.
func (d *Device) Write(page PageID, submitNS int64) int64 {
	lat := int64(d.prof.writeLatency())
	xfer := int64(d.prof.WriteTransferTime())

	d.mu.Lock()
	defer d.mu.Unlock()
	ch := int(page) % len(d.channelFree)
	start := submitNS
	if d.channelFree[ch] > start {
		start = d.channelFree[ch]
	}
	// Transfer precedes the program on writes (host pushes data first).
	xferStart := start
	if d.busFree > xferStart {
		xferStart = d.busFree
	}
	xferEnd := xferStart + xfer
	d.busFree = xferEnd
	complete := xferEnd + lat
	d.channelFree[ch] = complete
	d.stats.Writes++
	d.stats.BytesWritten += int64(d.prof.PageSize)
	d.stats.BusyNS += complete - start
	return complete
}

// Stats returns a snapshot of accumulated statistics.
func (d *Device) Stats() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}

// Reset clears statistics and returns the device to an idle state at
// virtual time zero.
func (d *Device) Reset() {
	d.mu.Lock()
	defer d.mu.Unlock()
	for i := range d.channelFree {
		d.channelFree[i] = 0
	}
	d.busFree = 0
	d.stats = Stats{}
	d.readSeq = 0
}
