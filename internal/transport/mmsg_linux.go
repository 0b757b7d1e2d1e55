//go:build linux && (amd64 || arm64)

package transport

import (
	"net"
	"sync"
	"sync/atomic"
	"syscall"
	"unsafe"

	"camelot/internal/tid"
	"camelot/internal/wire"
)

// Batched UDP syscalls: sendmmsg(2) puts a whole fan-out on the wire
// in one kernel crossing, recvmmsg(2) drains a burst of inbound
// datagrams in one. Per-datagram syscall overhead is the dominant
// transport cost once the codec stops allocating (ROADMAP item 3),
// and the commit protocols are all fan-out shaped: one prepare to N
// subordinates, one outcome to N, one 2a to 2F+1 acceptors.
//
// Everything here is reached through net.UDPConn's SyscallConn, so
// the runtime netpoller stays in charge of readiness: a Read/Write
// callback returning false on EAGAIN parks the goroutine exactly as
// a blocking conn.ReadFromUDP would.

// recvBatchSize is how many datagrams one recvmmsg call may drain.
const recvBatchSize = 8

// mmsgDisabled latches when the kernel refuses the batched syscalls
// (ENOSYS on exotic kernels/emulators); every peer then uses the
// portable loop for the rest of the process lifetime.
var mmsgDisabled atomic.Bool

// mmsghdr mirrors struct mmsghdr: a msghdr plus the kernel-filled
// datagram length. Go's struct padding matches the C layout on
// linux/amd64 and linux/arm64 (msghdr is 8-aligned, so the trailing
// uint32 pads the struct to the same 8-byte multiple as C).
type mmsghdr struct {
	hdr syscall.Msghdr
	n   uint32
}

// mmsgScratch is the per-call scratch for a batched send: headers,
// iovecs, raw sockaddrs, and per-destination patched buffers. Pooled
// so a steady-state fan-out allocates nothing.
type mmsgScratch struct {
	hdrs []mmsghdr
	iovs []syscall.Iovec
	sas  []syscall.RawSockaddrInet4
	bufs [][]byte
	tos  []tid.SiteID
}

var mmsgPool = sync.Pool{New: func() any { return &mmsgScratch{} }}

func getScratch(n int) *mmsgScratch {
	s := mmsgPool.Get().(*mmsgScratch)
	if cap(s.bufs) < n {
		s.hdrs = make([]mmsghdr, n)
		s.iovs = make([]syscall.Iovec, n)
		s.sas = make([]syscall.RawSockaddrInet4, n)
		grown := make([][]byte, n)
		copy(grown, s.bufs[:cap(s.bufs)]) // keep already-grown datagram buffers
		s.bufs = grown
		s.tos = make([]tid.SiteID, n)
	}
	s.hdrs, s.iovs, s.sas = s.hdrs[:n], s.iovs[:n], s.sas[:n]
	s.bufs, s.tos = s.bufs[:n], s.tos[:n]
	return s
}

func putScratch(s *mmsgScratch) { mmsgPool.Put(s) }

// fillSockaddr4 writes addr into sa in the kernel's expected layout.
// Only IPv4 destinations take the fast path; a loopback cluster and
// any -listen=127.0.0.1/10.x deployment is IPv4, and falling back for
// IPv6 keeps the unsafe surface minimal.
func fillSockaddr4(sa *syscall.RawSockaddrInet4, addr *net.UDPAddr) bool {
	ip4 := addr.IP.To4()
	if ip4 == nil {
		return false
	}
	sa.Family = syscall.AF_INET
	port := (*[2]byte)(unsafe.Pointer(&sa.Port))
	port[0] = byte(addr.Port >> 8)
	port[1] = byte(addr.Port)
	copy(sa.Addr[:], ip4)
	return true
}

// sendBatch transmits buf to every destination in tos with one
// sendmmsg call (each destination gets its own PatchTo-readdressed
// copy). Returns false — without having sent anything — when the fast
// path does not apply: mmsg disabled, the peer closed, a destination
// missing or non-IPv4. The caller then runs the portable loop, which
// owns all drop accounting for those cases.
func (p *UDPPeer) sendBatch(tos []tid.SiteID, buf []byte, m *wire.Msg) bool {
	if mmsgDisabled.Load() {
		return false
	}
	s := getScratch(len(tos))
	defer putScratch(s)

	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return false
	}
	ok := true
	for i, to := range tos {
		addr := p.peers[to]
		if addr == nil || !fillSockaddr4(&s.sas[i], addr) {
			ok = false
			break
		}
	}
	p.mu.Unlock()
	if !ok {
		return false
	}

	for i, to := range tos {
		s.tos[i] = to
		s.bufs[i] = append(s.bufs[i][:0], buf...)
		wire.PatchTo(s.bufs[i], to)
		s.iovs[i].Base = &s.bufs[i][0]
		s.iovs[i].SetLen(len(s.bufs[i]))
		s.hdrs[i] = mmsghdr{}
		s.hdrs[i].hdr.Name = (*byte)(unsafe.Pointer(&s.sas[i]))
		s.hdrs[i].hdr.Namelen = syscall.SizeofSockaddrInet4
		s.hdrs[i].hdr.Iov = &s.iovs[i]
		s.hdrs[i].hdr.Iovlen = 1
	}

	sent := 0
	var sysErr syscall.Errno
	werr := p.rc.Write(func(fd uintptr) bool {
		for sent < len(s.hdrs) {
			n, _, errno := syscall.Syscall6(sysSENDMMSG, fd,
				uintptr(unsafe.Pointer(&s.hdrs[sent])), uintptr(len(s.hdrs)-sent), 0, 0, 0)
			switch errno {
			case 0:
				sent += int(n)
			case syscall.EAGAIN:
				return false // park on the netpoller until writable
			case syscall.EINTR:
				continue
			default:
				sysErr = errno
				return true
			}
		}
		return true
	})
	if sysErr == syscall.ENOSYS {
		mmsgDisabled.Store(true)
		return sent > 0 // nothing sent: portable loop can still run
	}
	for i := 0; i < sent; i++ {
		m.To = s.tos[i]
		p.tr.MsgSend(p.self, s.tos[i], m)
	}
	if werr != nil || sysErr != 0 {
		why := "sendmmsg failed"
		if werr != nil {
			why = werr.Error()
		} else if sysErr != 0 {
			why = sysErr.Error()
		}
		for i := sent; i < len(s.tos); i++ {
			m.To = s.tos[i]
			p.drop(s.tos[i], m, why)
		}
	}
	return true
}

// recvSlots is the batched reader's receive memory, sized to the
// traffic rather than to the largest legal datagram: recvBatchSize
// private heads of slotSize bytes, which the protocols' datagrams fit,
// and one spill buffer of wire.MaxDatagram+1 bytes. Each slot's iovec
// pair is its own head followed by the spill's tail (spill[slotSize:]),
// so any legal datagram still lands whole, and one byte beyond the
// legal maximum still shows as truncation: 80 KiB a peer, against
// recvBatchSize×64 KiB for a full-size buffer per slot.
//
// The tail is shared. The kernel fills the slots in arrival order, so
// of the datagrams one call brings that overflow their heads, only the
// last keeps its tail; an earlier one is dropped and counted like any
// other loss, and the protocols' retry masks it.
type recvSlots struct {
	heads []byte
	spill []byte
	iovs  []syscall.Iovec
	hdrs  []mmsghdr
}

func newRecvSlots() *recvSlots {
	s := &recvSlots{
		heads: make([]byte, recvBatchSize*slotSize),
		spill: make([]byte, wire.MaxDatagram+1),
		iovs:  make([]syscall.Iovec, 2*recvBatchSize),
		hdrs:  make([]mmsghdr, recvBatchSize),
	}
	tail := s.spill[slotSize:]
	for i := range s.hdrs {
		head, iov := s.head(i), s.iovs[2*i:2*i+2]
		iov[0].Base = &head[0]
		iov[0].SetLen(len(head))
		iov[1].Base = &tail[0]
		iov[1].SetLen(len(tail))
		s.hdrs[i].hdr.Iov = &iov[0]
		s.hdrs[i].hdr.Iovlen = 2
	}
	return s
}

func (s *recvSlots) head(i int) []byte { return s.heads[i*slotSize : (i+1)*slotSize] }

// deliver hands the got datagrams of the last recvmmsg call to p in
// arrival order. The one overflowing datagram that kept its tail is
// made whole by copying its head in front of the tail.
func (s *recvSlots) deliver(p *UDPPeer, got int) {
	last := -1
	for i := 0; i < got; i++ {
		if s.hdrs[i].n > slotSize {
			last = i
		}
	}
	for i := 0; i < got; i++ {
		n := int(s.hdrs[i].n)
		switch {
		case n <= slotSize:
			p.deliver(s.head(i)[:n])
		case i == last:
			copy(s.spill, s.head(i))
			p.deliver(s.spill[:n])
		default:
			p.drop(0, nil, "spill overwritten by a later datagram of the same recvmmsg")
		}
	}
}

// readBatch drains the socket with recvmmsg until it closes; it
// returns true in that case. A kernel that refuses the syscall makes
// it return false before any datagram is consumed, and the portable
// loop takes over.
func (p *UDPPeer) readBatch() bool {
	if mmsgDisabled.Load() {
		return false
	}
	s := newRecvSlots()
	probed := false
	for {
		got := 0
		var sysErr syscall.Errno
		rerr := p.rc.Read(func(fd uintptr) bool {
			for {
				n, _, errno := syscall.Syscall6(syscall.SYS_RECVMMSG, fd,
					uintptr(unsafe.Pointer(&s.hdrs[0])), recvBatchSize, 0, 0, 0)
				switch errno {
				case 0:
					got = int(n)
					return true
				case syscall.EAGAIN:
					return false // park on the netpoller until readable
				case syscall.EINTR:
					continue
				default:
					sysErr = errno
					return true
				}
			}
		})
		if rerr != nil {
			return true // socket closed
		}
		if sysErr != 0 {
			if !probed && sysErr == syscall.ENOSYS {
				mmsgDisabled.Store(true)
				return false
			}
			return true
		}
		probed = true
		s.deliver(p, got)
	}
}
