package transport

import (
	"fmt"
	"net"
	"sync"
	"syscall"

	"camelot/internal/tid"
	"camelot/internal/trace"
	"camelot/internal/wire"
)

// backlogCap bounds the datagrams a UDPPeer parks while no handler is
// installed. Startup races between peers are the norm in a real
// cluster — the socket must bind (so the address can be exchanged)
// before the transaction manager that will consume its traffic
// exists — so early arrivals are buffered rather than discarded, and
// arrivals beyond the bound are counted as drops like any other loss.
const backlogCap = 128

// slotSize is room for every datagram the protocols send short of a
// very large piggybacked-ack batch: wire's fixed 75-byte header plus a
// few site ids, votes or ack TIDs (wire.EncodedSize; 2048 bytes hold
// 123 acks). The send pool's buffers start at it, and the batched
// reader gives each recvmmsg slot this much room of its own; a larger
// legal datagram continues into a shared spill buffer.
const slotSize = 2048

// bufPool recycles send-side datagram buffers. A buffer crosses into
// the kernel synchronously inside WriteToUDP/sendmmsg, so it can be
// recycled as soon as the send call returns; once the pool's buffers
// have grown to the traffic's working size, marshaling a datagram
// allocates nothing (wire.AppendDatagram into the recycled slice).
var bufPool = sync.Pool{New: func() any {
	b := make([]byte, 0, slotSize)
	return &b
}}

func getBuf() *[]byte  { return bufPool.Get().(*[]byte) }
func putBuf(b *[]byte) { bufPool.Put(b) }

// UDPPeer is a real-network Sender: transaction-manager datagrams are
// marshaled with the wire codec and carried over UDP, with exactly
// the delivery guarantees the protocols were built for — none. The
// transaction managers' own timeout/retry and idempotent-answer
// machinery provides the reliability, just as it did over the
// paper's token ring.
//
// A UDPPeer carries only *wire.Msg payloads (the TranMan-to-TranMan
// traffic of §3.2/§3.3); the communication-manager RPC path is
// connection-oriented and would ride TCP in a full deployment.
type UDPPeer struct {
	self tid.SiteID
	conn *net.UDPConn
	rc   syscall.RawConn

	// tr is the site's ledger: every datagram sent, taken in or lost
	// is counted there and nowhere else.
	tr *trace.Collector
	// logf, if non-nil, reports the losses retry can never mask.
	logf func(format string, args ...any)

	mu      sync.Mutex
	peers   map[tid.SiteID]*net.UDPAddr
	handler Handler
	backlog []Datagram
	closed  bool
	lastErr error
}

// NewUDPPeer binds a UDP socket for site self at listenAddr (for
// example "127.0.0.1:0") and starts its reader. It counts into a
// counters-only ledger of its own and logs nothing.
func NewUDPPeer(self tid.SiteID, listenAddr string) (*UDPPeer, error) {
	return ListenUDP(self, listenAddr, nil, nil)
}

// ListenUDP is NewUDPPeer counting into tr, the site's ledger (nil
// builds a counters-only one), and reporting through logf, which may be
// nil. Datagram loss is normal and stays quiet, but losses that retry
// can never mask — oversize messages, corrupt datagrams — go to logf so
// a deployment does not fail silently.
func ListenUDP(self tid.SiteID, listenAddr string, tr *trace.Collector, logf func(format string, args ...any)) (*UDPPeer, error) {
	if tr == nil {
		tr = trace.NewCounters()
	}
	addr, err := net.ResolveUDPAddr("udp", listenAddr)
	if err != nil {
		return nil, fmt.Errorf("transport: resolve %q: %w", listenAddr, err)
	}
	conn, err := net.ListenUDP("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen: %w", err)
	}
	rc, err := conn.SyscallConn()
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("transport: raw conn: %w", err)
	}
	p := &UDPPeer{
		self:  self,
		conn:  conn,
		rc:    rc,
		tr:    tr,
		peers: make(map[tid.SiteID]*net.UDPAddr),
		logf:  logf,
	}
	//lint:rawgo host-side UDP read loop; this transport never runs under the simulation kernel
	go p.readLoop()
	return p, nil
}

// Addr returns the bound local address, for exchanging with peers.
func (p *UDPPeer) Addr() string { return p.conn.LocalAddr().String() }

// AddPeer registers the address of another site, replacing any
// previous one (a site that restarted on a new port re-announces).
func (p *UDPPeer) AddPeer(id tid.SiteID, addr string) error {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return fmt.Errorf("transport: resolve peer %q: %w", addr, err)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.peers[id] = ua
	return nil
}

// SetHandler installs the inbound datagram handler and delivers any
// datagrams that arrived before it existed, in arrival order.
func (p *UDPPeer) SetHandler(h Handler) {
	p.mu.Lock()
	p.handler = h
	parked := p.backlog
	p.backlog = nil
	p.mu.Unlock()
	for _, d := range parked {
		h(d)
	}
}

// Send implements Sender. Non-*wire.Msg payloads and unknown peers
// are dropped (counted in the ledger),
// matching datagram semantics; oversize messages additionally record
// an error retrievable via Err, because no retry can ever mask them.
func (p *UDPPeer) Send(from, to tid.SiteID, payload any) {
	msg, ok := payload.(*wire.Msg)
	if !ok {
		p.drop(to, payload, "non-wire payload")
		return
	}
	// Fill in the addressing the simulated network carries out of
	// band; receivers rely on msg.From for replies.
	m := *msg
	m.From = from
	m.To = to
	bp := getBuf()
	buf, err := wire.AppendDatagram((*bp)[:0], &m)
	if err != nil {
		putBuf(bp)
		p.oversizeDrop(to, &m, err)
		return
	}
	p.transmit(to, buf, &m)
	*bp = buf[:0]
	putBuf(bp)
}

// Multicast implements Sender. Loopback deployments have no real
// multicast group, so this is a fan-out of unicasts; the latency
// semantics that distinguish multicast in the simulator are a
// property of the medium, not of this API.
func (p *UDPPeer) Multicast(from tid.SiteID, tos []tid.SiteID, payload any) {
	p.fanout(from, tos, payload)
}

// SendAll implements Sender.
func (p *UDPPeer) SendAll(from tid.SiteID, tos []tid.SiteID, payload any) {
	p.fanout(from, tos, payload)
}

// fanout sends one payload to every destination, marshaling once and
// re-addressing the buffer per destination (wire.PatchTo) — these are
// the coordinator's hottest sends (§4.2), and re-encoding an
// identical message per subordinate was pure waste.
func (p *UDPPeer) fanout(from tid.SiteID, tos []tid.SiteID, payload any) {
	msg, ok := payload.(*wire.Msg)
	if !ok {
		for _, to := range tos {
			p.drop(to, payload, "non-wire payload")
		}
		return
	}
	m := *msg
	m.From = from
	m.To = 0
	bp := getBuf()
	buf, err := wire.AppendDatagram((*bp)[:0], &m)
	if err != nil {
		putBuf(bp)
		for _, to := range tos {
			p.oversizeDrop(to, &m, err)
		}
		return
	}
	// Batched fast path: one sendmmsg syscall for the whole fan-out
	// (linux; falls back if a peer is missing, non-IPv4, or the kernel
	// refuses the syscall).
	if len(tos) > 1 && p.sendBatch(tos, buf, &m) {
		*bp = buf[:0]
		putBuf(bp)
		return
	}
	for _, to := range tos {
		wire.PatchTo(buf, to)
		m.To = to
		p.transmit(to, buf, &m)
	}
	*bp = buf[:0]
	putBuf(bp)
}

// transmit puts one already marshaled datagram on the wire.
func (p *UDPPeer) transmit(to tid.SiteID, buf []byte, msg *wire.Msg) {
	p.mu.Lock()
	addr := p.peers[to]
	closed := p.closed
	p.mu.Unlock()
	if addr == nil || closed {
		p.drop(to, msg, "no address for peer")
		return
	}
	if _, err := p.conn.WriteToUDP(buf, addr); err != nil {
		p.drop(to, msg, err.Error())
		return
	}
	p.tr.MsgSend(p.self, to, msg)
}

// Stats reports datagrams sent, received, and dropped at this peer: a
// view over the site's ledger. A datagram parked before SetHandler
// counts as received when it arrives.
func (p *UDPPeer) Stats() (sent, received, dropped int) {
	sc := p.tr.Site(p.self)
	return sc.MsgsSent, sc.MsgsRecv, sc.MsgsDropped
}

// Oversize reports how many sends were refused because the message
// exceeded wire.MaxDatagram. These are included in the drop count but
// deserve their own counter: they are a protocol bug, not weather.
func (p *UDPPeer) Oversize() int { return p.tr.Site(p.self).Oversize }

// Err returns the most recent send error that loss-masking cannot
// recover from (currently only wire.ErrOversize), or nil.
func (p *UDPPeer) Err() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.lastErr
}

// Close shuts the socket down; the read loop exits.
func (p *UDPPeer) Close() error {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	return p.conn.Close()
}

// drop counts one datagram lost at this site, inbound or outbound;
// peer is the other end, zero if unknown.
func (p *UDPPeer) drop(peer tid.SiteID, payload any, why string) {
	p.tr.MsgDrop(p.self, peer, payload)
	if p.logf != nil {
		p.logf("transport: site%d: dropped datagram (peer site%d): %s", p.self, peer, why)
	}
}

// oversizeDrop is the loud path for a message that can never fit one
// datagram: counted separately, recorded as a sticky error, and
// always logged — a silent drop here would be unmaskable loss.
func (p *UDPPeer) oversizeDrop(to tid.SiteID, msg *wire.Msg, err error) {
	p.tr.MsgDrop(p.self, to, msg)
	p.tr.Count(p.self, trace.Oversize, 1)
	p.mu.Lock()
	p.lastErr = err
	p.mu.Unlock()
	if p.logf != nil {
		p.logf("transport: site%d: refused send to site%d: %v", p.self, to, err)
	}
}

func (p *UDPPeer) readLoop() {
	// The linux fast path drains the socket with recvmmsg — many
	// datagrams per syscall — and returns true when the socket closes.
	// It returns false only if the kernel refuses the syscall, in
	// which case the portable one-datagram-per-read loop takes over.
	if p.readBatch() {
		return
	}
	// One byte beyond the legal maximum so truncation is detectable:
	// a read that fills the whole buffer did not fit and cannot be a
	// legal message.
	buf := make([]byte, wire.MaxDatagram+1)
	for {
		n, _, err := p.conn.ReadFromUDP(buf)
		if err != nil {
			return // closed
		}
		p.deliver(buf[:n])
	}
}

// deliver decodes one received datagram and hands it to the handler
// (or the backlog). The Msg is freshly allocated per datagram on
// purpose: the handler chain (core.Manager.Deliver) parks the pointer
// on an asynchronous work queue, so recycling it here would be a
// use-after-recycle.
func (p *UDPPeer) deliver(data []byte) {
	if len(data) > wire.MaxDatagram {
		p.drop(0, nil, "datagram exceeds wire.MaxDatagram")
		return
	}
	msg, err := wire.Unmarshal(data)
	if err != nil {
		p.drop(0, nil, fmt.Sprintf("corrupt datagram: %v", err))
		return
	}
	d := Datagram{From: msg.From, To: p.self, Payload: msg}
	p.mu.Lock()
	h := p.handler
	if h == nil {
		// No handler yet: park the datagram until SetHandler. It is
		// received now; an overflowing backlog is loss, and is
		// counted as such.
		if len(p.backlog) >= backlogCap {
			p.mu.Unlock()
			p.drop(msg.From, msg, "no handler and backlog full")
			return
		}
		p.backlog = append(p.backlog, d)
	}
	p.mu.Unlock()
	p.tr.MsgRecv(p.self, msg.From, msg)
	if h != nil {
		h(d)
	}
}

// UDPPeer must satisfy Sender.
var _ Sender = (*UDPPeer)(nil)
