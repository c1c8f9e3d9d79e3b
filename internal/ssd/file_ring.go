package ssd

import "sync"

// ringPool holds the backend's io_uring rings, one leased per queue pair
// for one submit→drain batch. A ring is created when a lease finds none
// idle and lives until FileBackend.Close; it is never kept in a
// sync.Pool, because a ring the GC collected would leak its fd and
// mappings. Once creating a ring fails (EMFILE, or RLIMIT_MEMLOCK on
// kernels before 5.12, which charge ring memory to it), the pool stops
// growing and leases wait for an idle ring: the executor never changes
// mid-run.
type ringPool struct {
	depth int

	mu      sync.Mutex
	cond    sync.Cond
	idle    []*uringRing
	all     []*uringRing
	capped  bool // creation failed: wait for idle rings instead
	waiters int
}

// newRingPool probes io_uring by creating the pool's first ring; nil
// means io_uring is unavailable and the backend uses the pread pools.
func newRingPool(depth int) *ringPool {
	r, err := newURing(depth)
	if err != nil {
		return nil
	}
	p := &ringPool{depth: depth, idle: []*uringRing{r}, all: []*uringRing{r}}
	p.cond.L = &p.mu
	return p
}

// lease takes an idle ring, creating one if none is idle and the pool is
// not capped, and waits for a release otherwise.
func (p *ringPool) lease() *uringRing {
	p.mu.Lock()
	for len(p.idle) == 0 {
		if !p.capped {
			p.mu.Unlock()
			r, err := newURing(p.depth)
			p.mu.Lock()
			if err == nil {
				p.all = append(p.all, r)
				p.mu.Unlock()
				return r
			}
			p.capped = true
			continue
		}
		p.waiters++
		p.cond.Wait()
		p.waiters--
	}
	r := p.idle[len(p.idle)-1]
	p.idle = p.idle[:len(p.idle)-1]
	p.mu.Unlock()
	return r
}

// release returns a drained ring to the pool.
func (p *ringPool) release(r *uringRing) {
	p.mu.Lock()
	p.idle = append(p.idle, r)
	wake := p.waiters > 0
	p.mu.Unlock()
	if wake {
		p.cond.Signal()
	}
}

// retire takes a ring whose io_uring_enter failed out of circulation. It
// stays in all, so Close still releases it; until then its iovecs keep
// the buffers of reads the kernel may yet complete reachable. Retiring
// lifts the cap, so a waiting or later lease may create a replacement.
func (p *ringPool) retire() {
	p.mu.Lock()
	p.capped = false
	wake := p.waiters > 0
	p.mu.Unlock()
	if wake {
		p.cond.Broadcast()
	}
}

// close releases every ring; the backend must be idle.
func (p *ringPool) close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, r := range p.all {
		r.close()
	}
	p.all, p.idle = nil, nil
}

// ringRead is one page read of a queue pair's batch.
type ringRead struct {
	page       PageID
	local      PageID
	shard      int
	pageOff    int
	buf        *PageBuf // nil once the read's completion is queued
	submitVirt int64
	submitWall int64 // wall time of the io_uring_enter that submitted it
}

// submitRing stamps rd into the queue pair's leased ring, leasing one at
// the batch's first read and pumping the ring when it is full.
func (q *FileQueue) submitRing(rd ringRead) {
	off, span, pageOff, err := q.fb.files[rd.shard].PageSpan(rd.local)
	if err != nil {
		rd.submitWall = q.anchorWall
		q.completeRing(&rd, q.anchorWall, err)
		return
	}
	rd.pageOff = pageOff
	if q.ring == nil {
		q.ring = q.fb.rings.lease()
	}
	if q.ring.full() {
		q.awaitRing(1)
		if q.ring == nil { // the pump wedged the ring; lease another
			q.ring = q.fb.rings.lease()
		}
	}
	q.ring.stamp(q.fb.fds[rd.shard], off, rd.buf.data[:span], uint32(len(q.reads)))
	q.reads = append(q.reads, rd)
}

// drainRing completes the batch: one io_uring_enter submits every stamped
// read and waits for all outstanding ones, the CQEs are reaped inline,
// and the ring goes back to the pool.
func (q *FileQueue) drainRing() {
	if q.ring != nil {
		if n := len(q.reads) - q.reaped; n > 0 {
			q.awaitRing(n)
		}
	}
	if q.ring != nil {
		q.fb.rings.release(q.ring)
		q.ring = nil
	}
	q.reads = q.reads[:0]
	q.entered, q.reaped = 0, 0
}

// awaitRing submits the stamped reads, waits until want completions are
// ready, and reaps every ready one. The wall clock is read once for the
// submission (every read it carries is stamped with it: the moment the
// kernel received them) and once for the reap pass.
func (q *FileQueue) awaitRing(want int) {
	wall := q.fb.wallNS()
	for i := q.entered; i < len(q.reads); i++ {
		q.reads[i].submitWall = wall
	}
	q.entered = len(q.reads)
	if err := q.ring.enter(want); err != nil {
		q.failRing(err)
		return
	}
	wall = q.fb.wallNS()
	for {
		tag, n, err, ok := q.ring.pop()
		if !ok {
			return
		}
		rd := &q.reads[tag]
		fs := q.fb.files[rd.shard]
		if err = fs.CheckSpanRead(rd.local, rd.pageOff, n, err); err == nil {
			rd.buf.img = rd.buf.data[rd.pageOff : rd.pageOff+fs.PageSize()]
		}
		q.completeRing(rd, wall, err)
		q.reaped++
	}
}

// failRing fails every outstanding read of a ring whose io_uring_enter
// failed and retires the ring. The reads' buffers are not recycled: the
// kernel may still write into them, and the retired ring keeps them
// reachable until Close.
func (q *FileQueue) failRing(err error) {
	wall := q.fb.wallNS()
	for i := range q.reads {
		if rd := &q.reads[i]; rd.buf != nil {
			rd.buf = nil
			q.completeRing(rd, wall, err)
			q.reaped++
		}
	}
	q.fb.rings.retire()
	q.ring = nil
}

// completeRing records one read's outcome in the shard's statistics and
// latency histogram and queues its completion, handing rd's buffer
// reference (if any) to it.
func (q *FileQueue) completeRing(rd *ringRead, wall int64, err error) {
	lat := wall - rd.submitWall
	q.fb.shards[rd.shard].recordExternalRead(lat, err, false)
	q.fb.hists[rd.shard].observe(lat)
	q.done = append(q.done, Completion{
		Page:       rd.page,
		SubmitNS:   rd.submitVirt,
		CompleteNS: q.virtOf(wall),
		Err:        err,
		Buf:        rd.buf,
	})
	rd.buf = nil
}
