package ssd

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
)

// Backend is a read target the serving layer submits page reads to: a
// single Device or a striped Array of devices. The page space is global;
// ShardOf maps a global page onto its owning shard and the page's local
// address there, and GlobalOf inverts the mapping. A lone *Device is the
// degenerate one-shard backend, so code written against Backend serves
// single-device and multi-device deployments identically.
type Backend interface {
	// Profile returns the backend's aggregate performance profile: for an
	// Array, bandwidth/channels/queue depth sum over member devices while
	// per-read latency is that of one device.
	Profile() Profile
	// NumShards returns the number of independent devices.
	NumShards() int
	// ShardOf maps a global page to (owning shard, page address local to
	// that shard's device).
	ShardOf(page PageID) (shard int, local PageID)
	// GlobalOf inverts ShardOf.
	GlobalOf(shard int, local PageID) PageID
	// Shard returns the i-th member device.
	Shard(i int) *Device
	// Frontier returns the latest virtual time at which any resource of
	// any shard becomes idle.
	Frontier() int64
	// Stats returns activity summed across shards.
	Stats() Stats
	// Reset clears statistics and returns every shard to an idle state at
	// virtual time zero.
	Reset()
}

// Single-device Backend implementation: a *Device is a one-shard backend
// whose global and local page spaces coincide.

// NumShards implements Backend: a lone device is one shard.
func (d *Device) NumShards() int { return 1 }

// ShardOf implements Backend: every page lives on shard 0 at its own
// address.
func (d *Device) ShardOf(page PageID) (int, PageID) { return 0, page }

// GlobalOf implements Backend.
func (d *Device) GlobalOf(_ int, local PageID) PageID { return local }

// Shard implements Backend; the only valid index is 0.
func (d *Device) Shard(i int) *Device {
	if i != 0 {
		panic(fmt.Sprintf("ssd: Device.Shard(%d) on a single device", i))
	}
	return d
}

// Array is a striped multi-device backend: n independent Devices with page
// i living on device i mod n at local address i div n — RAID-0 at page
// granularity, the arrangement the paper's multi-drive evaluation uses
// (§7). Every member device keeps its own channels, transfer bus, queue
// depths, and fault state, so cross-device parallelism, skewed per-shard
// load, and single-shard faults are modelled faithfully.
//
// The striping uses the LOCAL page for channel mapping (each Device hashes
// its local page onto its channels): mapping the global page would alias
// all of a shard's pages — which share a residue class mod n — onto a
// subset of its channels whenever the channel count shares a factor with n.
//
// An Array is safe for concurrent use; each member Device carries its own
// mutex, so queues on different shards never contend on a shared lock —
// exactly the hardware arbitration structure of separate drives.
type Array struct {
	devs   []*Device
	prof   Profile
	health *HealthTracker

	// Tier structure derived at construction: shards grouped by profile,
	// groups ranked fastest-first by read latency (see deriveTiers). A
	// homogeneous array is one tier.
	tiers  []TierInfo
	tierOf []int

	spareMu sync.Mutex
	spare   *Device // optional hot spare a rebuild streams onto
}

// NewArray returns an array of n identical devices with the given profile.
// n == 1 yields a working (if pointless) one-shard array whose behaviour
// is identical to a bare Device.
func NewArray(prof Profile, n int) (*Array, error) {
	if n < 1 {
		return nil, &ArrayConfigError{
			Reason: "no-devices", Shard: -1,
			Detail: fmt.Sprintf("array needs at least 1 device, got %d", n),
		}
	}
	devs := make([]*Device, n)
	for i := range devs {
		d, err := NewDevice(prof)
		if err != nil {
			return nil, err
		}
		devs[i] = d
	}
	return NewArrayOf(devs)
}

// NewArrayOf assembles an array from pre-built devices (e.g. devices armed
// with per-shard fault models). Profiles may differ per member — that is
// how tiered arrays are built (see NewTieredArray) — but all members must
// share a page size; violations return an *ArrayConfigError. The aggregate
// profile takes its latency from the first device and sums bandwidth,
// channels, and queue depth. Tier structure (shards grouped by profile,
// ranked fastest-first) is derived here, so a SwapShard-rebuilt array stays
// tier-correct without extra bookkeeping.
func NewArrayOf(devs []*Device) (*Array, error) {
	if len(devs) == 0 {
		return nil, &ArrayConfigError{Reason: "no-devices", Shard: -1, Detail: "array needs at least 1 device"}
	}
	base := devs[0].Profile()
	if len(devs) == 1 {
		a := &Array{devs: devs, prof: base}
		a.tiers, a.tierOf = deriveTiers(devs)
		a.initHealth(HealthConfig{})
		return a, nil
	}
	agg := base
	for i, d := range devs[1:] {
		p := d.Profile()
		if p.PageSize != base.PageSize {
			return nil, &ArrayConfigError{
				Reason: "page-size-mismatch", Shard: i + 1,
				Detail: fmt.Sprintf("page size %d (%s) differs from shard 0's %d (%s)",
					p.PageSize, p.Name, base.PageSize, base.Name),
			}
		}
		agg.Bandwidth += p.Bandwidth
		agg.Channels += p.Channels
		agg.QueueDepth += p.QueueDepth
		agg.WriteBandwidth += p.writeBandwidth()
	}
	a := &Array{devs: devs, prof: agg}
	a.tiers, a.tierOf = deriveTiers(devs)
	if len(a.tiers) == 1 {
		a.prof.Name = fmt.Sprintf("Array-%dx%s", len(devs), base.Name)
	} else {
		a.prof.Name = tieredName(a.tiers)
		// A mixed array's per-read latency is not one number; report the
		// fastest class's (tier 0) as the aggregate's, matching how the
		// aggregate is used (headline profile, not per-read simulation).
		a.prof.ReadLatency = a.tiers[0].Profile.ReadLatency
	}
	a.initHealth(HealthConfig{})
	return a, nil
}

// initHealth (re)builds the array's health tracker with cfg and taps every
// member device's read path into its shard's window. Devices report to the
// tracker of the array that wired them most recently, so after a SwapShard
// the surviving members feed the replacement array and the old one goes
// stale — by design, since the old stripe must not be served anymore.
func (a *Array) initHealth(cfg HealthConfig) {
	a.health = newHealthTracker(len(a.devs), cfg)
	for i, d := range a.devs {
		i := i
		d.setReadObserver(func(faulted bool) { a.health.observe(i, faulted) })
	}
}

// ConfigureHealth replaces the health tracker with one using cfg (for
// tighter windows in tests or deployments); accumulated health history is
// discarded and every shard restarts healthy.
func (a *Array) ConfigureHealth(cfg HealthConfig) { a.initHealth(cfg) }

// Profile implements Backend.
func (a *Array) Profile() Profile { return a.prof }

// NumShards implements Backend.
func (a *Array) NumShards() int { return len(a.devs) }

// ShardOf implements Backend: page p lives on device p mod n at local
// address p div n.
func (a *Array) ShardOf(page PageID) (int, PageID) {
	n := PageID(len(a.devs))
	return int(page % n), page / n
}

// GlobalOf implements Backend.
func (a *Array) GlobalOf(shard int, local PageID) PageID {
	return local*PageID(len(a.devs)) + PageID(shard)
}

// Shard implements Backend.
func (a *Array) Shard(i int) *Device { return a.devs[i] }

// Frontier implements Backend: the maximum frontier over member devices.
func (a *Array) Frontier() int64 {
	var f int64
	for _, d := range a.devs {
		if df := d.Frontier(); df > f {
			f = df
		}
	}
	return f
}

// Stats implements Backend: activity summed across shards.
func (a *Array) Stats() Stats {
	var s Stats
	for _, d := range a.devs {
		ds := d.Stats()
		s.Reads += ds.Reads
		s.BytesRead += ds.BytesRead
		s.BusyNS += ds.BusyNS
		s.Errors += ds.Errors
		s.Timeouts += ds.Timeouts
		s.Corruptions += ds.Corruptions
		s.InjectedLatencyNS += ds.InjectedLatencyNS
		s.Writes += ds.Writes
		s.BytesWritten += ds.BytesWritten
	}
	return s
}

// ShardStats returns each member device's statistics, indexed by shard.
func (a *Array) ShardStats() []Stats {
	out := make([]Stats, len(a.devs))
	for i, d := range a.devs {
		out[i] = d.Stats()
	}
	return out
}

// Reset implements Backend.
func (a *Array) Reset() {
	for _, d := range a.devs {
		d.Reset()
	}
}

// SetFaultModel installs (or clears, with nil) a fault model on every
// shard. Each shard judges reads against its own read sequence, so the
// schedule stays deterministic per shard regardless of cross-shard
// interleaving.
func (a *Array) SetFaultModel(m FaultModel) {
	for _, d := range a.devs {
		d.SetFaultModel(m)
	}
}

// SetShardFaultModel installs (or clears, with nil) a fault model on a
// single shard — the lever for single-drive failure scenarios.
func (a *Array) SetShardFaultModel(shard int, m FaultModel) {
	a.devs[shard].SetFaultModel(m)
}

// ShardState implements HealthReporter.
func (a *Array) ShardState(i int) ShardState {
	return ShardState(a.health.shards[i].state.Load())
}

// ShardHealth implements HealthReporter.
func (a *Array) ShardHealth(i int) ShardHealthInfo { return a.health.Info(i) }

// ShardHealths returns every shard's health snapshot, indexed by shard.
func (a *Array) ShardHealths() []ShardHealthInfo {
	out := make([]ShardHealthInfo, len(a.devs))
	for i := range out {
		out[i] = a.health.Info(i)
	}
	return out
}

// LiveShards returns how many shards are currently serving reads.
func (a *Array) LiveShards() int {
	n := 0
	for i := range a.devs {
		if a.ShardState(i).Live() {
			n++
		}
	}
	return n
}

// FailShard declares shard i failed regardless of its window — the chaos /
// operator hook. The OnFail callback fires as for an automatic failure.
func (a *Array) FailShard(i int) { a.health.setState(i, ShardFailed) }

// MarkRebuilding transitions shard i to rebuilding (a rebuilder claiming
// the shard). Returns false when the shard was already rebuilding, so two
// rebuilders cannot both claim it.
func (a *Array) MarkRebuilding(i int) bool {
	h := &a.health.shards[i]
	if !h.state.CompareAndSwap(int32(ShardFailed), int32(ShardRebuilding)) &&
		!h.state.CompareAndSwap(int32(ShardHealthy), int32(ShardRebuilding)) &&
		!h.state.CompareAndSwap(int32(ShardSuspect), int32(ShardRebuilding)) {
		return false
	}
	h.transitions.Add(1)
	return true
}

// MarkHealthy returns shard i to service with a cleared fault window (so
// faults from before the repair don't instantly re-fail it).
func (a *Array) MarkHealthy(i int) {
	a.health.shards[i].resetWindow()
	a.health.setState(i, ShardHealthy)
}

// NoteLatent adds n latent (at-rest corruption) errors to shard i's
// account; the scrubber calls this for every bad slot it finds.
func (a *Array) NoteLatent(i int, n int64) { a.health.shards[i].latent.Add(n) }

// OnFail registers a hook invoked on its own goroutine whenever a shard
// transitions into ShardFailed — the attachment point for an automatic
// rebuilder. At most one hook; nil clears it.
func (a *Array) OnFail(fn func(shard int)) { a.health.OnFail(fn) }

// AttachSpare installs a hot spare the rebuilder may stream a failed
// shard onto. At most one spare; its page size must match the stripe's.
func (a *Array) AttachSpare(d *Device) error {
	if d == nil {
		return fmt.Errorf("ssd: nil spare")
	}
	if d.Profile().PageSize != a.prof.PageSize {
		return fmt.Errorf("ssd: spare page size %d differs from array's %d",
			d.Profile().PageSize, a.prof.PageSize)
	}
	a.spareMu.Lock()
	defer a.spareMu.Unlock()
	if a.spare != nil {
		return fmt.Errorf("ssd: spare already attached")
	}
	a.spare = d
	return nil
}

// Spare returns the attached hot spare, or nil.
func (a *Array) Spare() *Device {
	a.spareMu.Lock()
	defer a.spareMu.Unlock()
	return a.spare
}

// SwapShard returns a NEW array in which shard i is the replacement
// device and every other slot is the same *Device as in the receiver —
// surviving members keep their virtual-time frontiers, statistics, and
// fault models across the swap. Passing a nil replacement consumes the
// attached spare. The new array starts with fresh, all-healthy shard
// windows (the replacement has just been rebuilt; the survivors' read
// outcomes re-accumulate immediately since their observers are re-wired
// here) and inherits the OnFail hook; it has no spare. The receiver must
// not be used for reads afterwards.
func (a *Array) SwapShard(i int, replacement *Device) (*Array, error) {
	if i < 0 || i >= len(a.devs) {
		return nil, fmt.Errorf("ssd: SwapShard(%d) on a %d-shard array", i, len(a.devs))
	}
	if replacement == nil {
		a.spareMu.Lock()
		replacement = a.spare
		a.spare = nil
		a.spareMu.Unlock()
		if replacement == nil {
			return nil, fmt.Errorf("ssd: SwapShard(%d): no spare attached", i)
		}
	}
	devs := make([]*Device, len(a.devs))
	copy(devs, a.devs)
	devs[i] = replacement
	nb, err := NewArrayOf(devs)
	if err != nil {
		return nil, err
	}
	a.health.mu.Lock()
	fn := a.health.onFail
	a.health.mu.Unlock()
	nb.OnFail(fn)
	return nb, nil
}

// MultiQueue is the per-worker set of per-shard queue pairs over a
// Backend: one SPDK-style Queue per member device, addressed by global
// page. Submission routes each page to its owning shard's queue (local
// address), and Drain reaps completions across all shards, translating
// pages back to the global space — so the virtual clock reflects genuine
// parallel submission on independent devices rather than a single merged
// queue.
//
// Like Queue, a MultiQueue is not safe for concurrent use; each worker
// owns one. For a one-shard backend it delegates to the single underlying
// Queue, making its behaviour (issue times, completion order, stats)
// bit-identical to driving that Queue directly.
type MultiQueue struct {
	be     Backend
	qs     []*Queue
	high   []int // per-shard outstanding-commands high-water mark
	merged []Completion
}

// NewMultiQueue returns a queue set bound to every shard of the backend,
// each with its device profile's queue depth.
func NewMultiQueue(be Backend) *MultiQueue {
	n := be.NumShards()
	m := &MultiQueue{
		be:   be,
		qs:   make([]*Queue, n),
		high: make([]int, n),
	}
	for i := 0; i < n; i++ {
		m.qs[i] = NewQueue(be.Shard(i))
	}
	return m
}

// NumShards returns the number of per-shard queues.
func (m *MultiQueue) NumShards() int { return len(m.qs) }

// Submit issues an asynchronous read of the global page at virtual time
// nowNS on the owning shard's queue and returns the issue time (which
// exceeds nowNS only when that shard's queue was full).
func (m *MultiQueue) Submit(page PageID, nowNS int64) int64 {
	shard, local := m.be.ShardOf(page)
	issue := m.qs[shard].Submit(local, nowNS)
	if n := m.qs[shard].InFlight(); n > m.high[shard] {
		m.high[shard] = n
	}
	return issue
}

// ShardOutstanding returns the number of commands in flight on one shard's
// queue at nowNS — the load signal selection tie-breaking steers by.
func (m *MultiQueue) ShardOutstanding(shard int, nowNS int64) int {
	return m.qs[shard].Outstanding(nowNS)
}

// Outstanding returns the commands in flight across all shards at nowNS.
func (m *MultiQueue) Outstanding(nowNS int64) int {
	total := 0
	for _, q := range m.qs {
		total += q.Outstanding(nowNS)
	}
	return total
}

// HighWater returns the highest number of simultaneously outstanding
// commands observed on the shard's queue since creation.
func (m *MultiQueue) HighWater(shard int) int { return m.high[shard] }

// Drain waits (virtually) for every command submitted since the last Drain
// to complete — on every shard — and returns the resulting virtual time (at
// least nowNS) with all completions, pages translated back to the global
// space, ordered by completion time (ties by page for determinism). The
// returned slice is reused by the next multi-shard Drain.
func (m *MultiQueue) Drain(nowNS int64) (doneNS int64, comps []Completion) {
	if len(m.qs) == 1 {
		// Single shard: global == local; hand back the queue's own
		// completions so the path is identical to a bare Queue.
		return m.qs[0].Drain(nowNS)
	}
	doneNS = nowNS
	m.merged = m.merged[:0]
	for shard, q := range m.qs {
		d, cs := q.Drain(nowNS)
		if d > doneNS {
			doneNS = d
		}
		for _, c := range cs {
			c.Page = m.be.GlobalOf(shard, c.Page)
			m.merged = append(m.merged, c)
		}
		// The completions were just copied into merged, so the drained
		// buffer can go back to the queue for its next submit cycle instead
		// of every drain growing a fresh pending slice on every shard.
		q.pending = cs[:0]
	}
	slices.SortFunc(m.merged, func(a, b Completion) int {
		if c := cmp.Compare(a.CompleteNS, b.CompleteNS); c != 0 {
			return c
		}
		return cmp.Compare(a.Page, b.Page)
	})
	return doneNS, m.merged
}
