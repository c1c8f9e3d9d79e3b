//go:build linux

package ssd

import (
	"fmt"
	"sync/atomic"
	"syscall"
	"unsafe"
)

// io_uring through raw syscalls (io_uring_setup/io_uring_enter are
// numbered identically on every 64-bit Linux arch, having landed after
// the syscall-table unification). A ring is leased to one queue pair for
// one submit→drain batch, so its memory is never touched concurrently
// from the Go side. No IORING_SETUP_SINGLE_ISSUER or DEFER_TASKRUN: the
// goroutine driving a lease may migrate between OS threads, and
// successive leases run on different goroutines. Sandboxed kernels
// (seccomp) commonly deny io_uring_setup; the backend's construction
// probe fails soft and falls back to the pread pool.
const (
	sysIOURingSetup = 425
	sysIOURingEnter = 426

	ioringOffSQRing = 0
	ioringOffCQRing = 0x8000000
	ioringOffSQEs   = 0x10000000

	ioringEnterGetevents = 1
	ioringFeatSingleMmap = 1

	ioringOpReadv = 1

	ioringMaxEntries = 32768
)

type ioSqringOffsets struct {
	head, tail, ringMask, ringEntries, flags, dropped, array, resv1 uint32
	userAddr                                                        uint64
}

type ioCqringOffsets struct {
	head, tail, ringMask, ringEntries, overflow, cqes, flags, resv1 uint32
	userAddr                                                        uint64
}

type ioUringParams struct {
	sqEntries, cqEntries, flags, sqThreadCPU, sqThreadIdle, features, wqFd uint32
	resv                                                                   [3]uint32
	sqOff                                                                  ioSqringOffsets
	cqOff                                                                  ioCqringOffsets
}

// ioUringSqe is the 64-byte submission queue entry (fields past userData
// are padding for the ops this package issues).
type ioUringSqe struct {
	opcode   uint8
	flags    uint8
	ioprio   uint16
	fd       int32
	off      uint64
	addr     uint64
	len      uint32
	opFlags  uint32
	userData uint64
	pad      [3]uint64
}

// ioUringCqe is the 16-byte completion queue entry.
type ioUringCqe struct {
	userData uint64
	res      int32
	flags    uint32
}

// uringRing is one io_uring instance with its mappings. At most
// len(iovecs) reads are stamped or in the kernel at once, which keeps the
// completion ring (twice the submission ring) from overflowing. Each read
// holds an iovec slot from stamp to reap; the slot's Iovec also keeps the
// read's buffer reachable while the kernel may write into it.
type uringRing struct {
	fd int

	sqRing, cqRing, sqeMem []byte // mappings (cqRing nil when it aliases sqRing)

	sqHead, sqTail, sqMask *uint32
	cqHead, cqTail, cqMask *uint32
	sqArray                []uint32
	sqes                   []ioUringSqe
	cqes                   []ioUringCqe

	iovecs   []syscall.Iovec
	freeIovs []uint32

	enters int // io_uring_enter calls made; read by tests between leases
}

// newURing sets up a ring with at least depth submission entries.
func newURing(depth int) (*uringRing, error) {
	depth = min(max(depth, 1), ioringMaxEntries)
	var params ioUringParams
	r1, _, errno := syscall.Syscall(sysIOURingSetup, uintptr(depth), uintptr(unsafe.Pointer(&params)), 0)
	if errno != 0 {
		return nil, errno
	}
	r := &uringRing{fd: int(r1)}
	if err := r.mapRings(&params); err != nil {
		syscall.Close(r.fd)
		return nil, err
	}
	r.iovecs = make([]syscall.Iovec, params.sqEntries)
	r.freeIovs = make([]uint32, params.sqEntries)
	for i := range r.freeIovs {
		r.freeIovs[i] = uint32(i)
	}
	return r, nil
}

// mapRings mmaps the submission/completion rings and the SQE array.
func (r *uringRing) mapRings(p *ioUringParams) error {
	sqSize := int(p.sqOff.array) + int(p.sqEntries)*4
	cqSize := int(p.cqOff.cqes) + int(p.cqEntries)*int(unsafe.Sizeof(ioUringCqe{}))
	single := p.features&ioringFeatSingleMmap != 0
	if single && cqSize > sqSize {
		sqSize = cqSize
	}
	sq, err := syscall.Mmap(r.fd, ioringOffSQRing, sqSize,
		syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED)
	if err != nil {
		return err
	}
	r.sqRing = sq
	cq := sq
	if !single {
		cq, err = syscall.Mmap(r.fd, ioringOffCQRing, cqSize,
			syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED)
		if err != nil {
			syscall.Munmap(sq)
			return err
		}
		r.cqRing = cq
	}
	sqes, err := syscall.Mmap(r.fd, ioringOffSQEs, int(p.sqEntries)*int(unsafe.Sizeof(ioUringSqe{})),
		syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED)
	if err != nil {
		if r.cqRing != nil {
			syscall.Munmap(r.cqRing)
		}
		syscall.Munmap(sq)
		return err
	}
	r.sqeMem = sqes

	r.sqHead = (*uint32)(unsafe.Pointer(&sq[p.sqOff.head]))
	r.sqTail = (*uint32)(unsafe.Pointer(&sq[p.sqOff.tail]))
	r.sqMask = (*uint32)(unsafe.Pointer(&sq[p.sqOff.ringMask]))
	r.sqArray = unsafe.Slice((*uint32)(unsafe.Pointer(&sq[p.sqOff.array])), p.sqEntries)
	r.sqes = unsafe.Slice((*ioUringSqe)(unsafe.Pointer(&sqes[0])), p.sqEntries)

	r.cqHead = (*uint32)(unsafe.Pointer(&cq[p.cqOff.head]))
	r.cqTail = (*uint32)(unsafe.Pointer(&cq[p.cqOff.tail]))
	r.cqMask = (*uint32)(unsafe.Pointer(&cq[p.cqOff.ringMask]))
	r.cqes = unsafe.Slice((*ioUringCqe)(unsafe.Pointer(&cq[p.cqOff.cqes])), p.cqEntries)
	return nil
}

// full reports whether every read slot is stamped or in the kernel.
func (r *uringRing) full() bool { return len(r.freeIovs) == 0 }

// stamp queues one readv of dst at off in fd, tagged for pop. The caller
// checks full first; nothing reaches the kernel until enter.
func (r *uringRing) stamp(fd int32, off int64, dst []byte, tag uint32) {
	slot := r.freeIovs[len(r.freeIovs)-1]
	r.freeIovs = r.freeIovs[:len(r.freeIovs)-1]
	r.iovecs[slot] = syscall.Iovec{Base: &dst[0], Len: uint64(len(dst))}
	tail := atomic.LoadUint32(r.sqTail)
	idx := tail & *r.sqMask
	r.sqes[idx] = ioUringSqe{
		opcode:   ioringOpReadv,
		fd:       fd,
		off:      uint64(off),
		addr:     uint64(uintptr(unsafe.Pointer(&r.iovecs[slot]))),
		len:      1,
		userData: uint64(slot)<<32 | uint64(tag),
	}
	r.sqArray[idx] = idx
	atomic.StoreUint32(r.sqTail, tail+1)
}

// enter hands every stamped SQE to the kernel and waits until at least
// want completions are ready to pop: one io_uring_enter, repeated only
// after EINTR or a short submit. Retrying is safe because each round
// recomputes both counts from the ring indexes the kernel maintains.
func (r *uringRing) enter(want int) error {
	for {
		queued := atomic.LoadUint32(r.sqTail) - atomic.LoadUint32(r.sqHead)
		ready := atomic.LoadUint32(r.cqTail) - *r.cqHead
		if queued == 0 && int(ready) >= want {
			return nil
		}
		r.enters++
		_, _, errno := syscall.Syscall6(sysIOURingEnter, uintptr(r.fd),
			uintptr(queued), uintptr(want), ioringEnterGetevents, 0, 0)
		if errno != 0 && errno != syscall.EINTR {
			return errno
		}
	}
}

// pop takes the next ready completion, returning its stamp tag and the
// bytes read or the read's error, and frees its read slot.
func (r *uringRing) pop() (tag uint32, n int, err error, ok bool) {
	head := *r.cqHead
	if head == atomic.LoadUint32(r.cqTail) {
		return 0, 0, nil, false
	}
	cqe := r.cqes[head&*r.cqMask]
	atomic.StoreUint32(r.cqHead, head+1)
	slot := uint32(cqe.userData >> 32)
	r.iovecs[slot] = syscall.Iovec{}
	r.freeIovs = append(r.freeIovs, slot)
	if cqe.res < 0 {
		return uint32(cqe.userData), 0, fmt.Errorf("ssd: io_uring read: %w", syscall.Errno(-cqe.res)), true
	}
	return uint32(cqe.userData), int(cqe.res), nil, true
}

// close unmaps the rings and closes the ring fd.
func (r *uringRing) close() {
	if r.sqeMem != nil {
		syscall.Munmap(r.sqeMem)
	}
	if r.cqRing != nil {
		syscall.Munmap(r.cqRing)
	}
	if r.sqRing != nil {
		syscall.Munmap(r.sqRing)
	}
	syscall.Close(r.fd)
}
