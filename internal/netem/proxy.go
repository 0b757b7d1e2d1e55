package netem

import (
	"fmt"
	"net"
	"sync"
	"time"
)

// maxDatagram bounds proxied reads: any UDP payload IPv4 carries, and
// one byte more. It is far above wire.MaxDatagram on purpose: the proxy
// forwards opaque bytes, oversize ones included, and leaves it to the
// receiver to drop and count them. It deliberately does not import the
// wire package, so a framing change can never desynchronize emulation
// from transport.
const maxDatagram = 64*1024 + 1

// Proxy interposes the emulator on a real loopback cluster. For each
// ordered site pair (from, to) it binds one UDP socket; the driver
// points node from's peer-map entry for to at that socket instead of
// at to directly, and the proxy forwards (or drops, duplicates,
// delays) toward to's real address per the emulator's decisions.
//
// Receivers learn the reply address from the message's From field and
// their own peer map — never from the datagram's source address — so
// the source-address rewrite the forwarding hop causes is invisible
// to the protocols.
type Proxy struct {
	em *Emulator

	mu     sync.Mutex
	links  map[[2]uint32]*pipe
	closed bool
}

// pipe is one ordered pair's interposition point.
type pipe struct {
	p        *Proxy
	from, to uint32
	conn     *net.UDPConn
	dst      *net.UDPAddr
}

// NewProxy builds a proxy ruled by the emulator.
func NewProxy(em *Emulator) *Proxy {
	return &Proxy{em: em, links: make(map[[2]uint32]*pipe)}
}

// Open binds the interposition socket for the ordered pair from→to,
// forwarding toward dst (site to's real address), and returns the
// address node from should use as its peer entry for to.
func (p *Proxy) Open(from, to uint32, dst string) (string, error) {
	da, err := net.ResolveUDPAddr("udp", dst)
	if err != nil {
		return "", fmt.Errorf("netem: resolve %q: %w", dst, err)
	}
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return "", fmt.Errorf("netem: bind %d->%d: %w", from, to, err)
	}
	pi := &pipe{p: p, from: from, to: to, conn: conn, dst: da}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		conn.Close()
		return "", fmt.Errorf("netem: proxy closed")
	}
	p.links[[2]uint32{from, to}] = pi
	p.mu.Unlock()
	//lint:rawgo host-side UDP forwarding loop; the proxy never runs under the simulation kernel
	go pi.run()
	return conn.LocalAddr().String(), nil
}

// Counts reports the emulator's decision tallies.
func (p *Proxy) Counts() Counts { return p.em.Counts() }

// Close shuts every pipe down.
func (p *Proxy) Close() {
	p.mu.Lock()
	p.closed = true
	links := p.links
	p.links = make(map[[2]uint32]*pipe)
	p.mu.Unlock()
	//lint:ordered teardown; each pipe closes once and nothing observes the order
	for _, pi := range links {
		pi.conn.Close()
	}
}

func (pi *pipe) run() {
	buf := make([]byte, maxDatagram)
	for {
		n, _, err := pi.conn.ReadFromUDP(buf)
		if err != nil {
			return // closed
		}
		d := pi.p.em.Decide(pi.from, pi.to)
		if d.Drop {
			continue
		}
		// The read buffer is reused, so every scheduled forward needs
		// its own copy.
		pkt := make([]byte, n)
		copy(pkt, buf[:n])
		for i := 0; i <= d.Dup; i++ {
			if d.Delay <= 0 {
				pi.forward(pkt)
				continue
			}
			time.AfterFunc(d.Delay, func() { pi.forward(pkt) }) //lint:walltime emulated link delay is real elapsed time by design
		}
	}
}

func (pi *pipe) forward(pkt []byte) {
	// Send errors are datagram loss; the protocols' retry machinery is
	// exactly the thing under test.
	pi.conn.WriteToUDP(pkt, pi.dst)
}
