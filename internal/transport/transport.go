// Package transport provides the inter-site datagram network.
//
// The paper's testbed was a 4 Mb/s IBM token ring without gateways;
// transaction managers exchange raw datagrams over it (10 ms each,
// Table 2) and the coordinator's serial send loop costs 1.7 ms per
// datagram — "the third prepare message is sent about 3.4 ms after
// the first" (§4.2). Multicast replaces that serial loop with a
// single send, which is exactly why it reduces the variance of
// distributed commit. This package models all of that: per-site send
// serialization, configurable latency and jitter, true multicast,
// message loss, site crashes, and network partitions.
package transport

import (
	"fmt"
	"time"

	"camelot/internal/rt"
	"camelot/internal/tid"
	"camelot/internal/trace"
)

// Datagram is one unreliable message. Payload is a protocol message
// (*wire.Msg for transaction-manager traffic, commman request/reply
// types for forwarded RPCs).
type Datagram struct {
	From    tid.SiteID
	To      tid.SiteID
	Payload any
}

// Handler receives inbound datagrams for one site. It runs on its own
// thread per delivery; implementations hand off to their own queues.
type Handler func(d Datagram)

// Sender is the datagram-transmission interface the transaction
// manager depends on: the simulated Network implements it, and so
// does the real UDPPeer, which is how the same protocol code runs on
// a physical network.
type Sender interface {
	// Send queues one unreliable datagram.
	Send(from, to tid.SiteID, payload any)
	// Multicast delivers one payload to every site in tos with a
	// single send.
	Multicast(from tid.SiteID, tos []tid.SiteID, payload any)
	// SendAll unicasts payload to each site in tos serially.
	SendAll(from tid.SiteID, tos []tid.SiteID, payload any)
}

// Config sets the network's timing and fault model.
type Config struct {
	// Latency is the one-way datagram time (paper: 10 ms).
	Latency time.Duration
	// SendCycle is the sender-side cost per datagram; consecutive
	// sends from one site are spaced by it (paper: 1.7 ms).
	SendCycle time.Duration
	// Jitter adds a uniform random [0, Jitter) scheduling delay per
	// send *at the sender*, and the delay pushes back the sender's
	// subsequent sends. A serial unicast fan-out therefore
	// accumulates one draw per datagram while a multicast pays a
	// single draw — which is why "much of the variance is created by
	// the coordinator's repeated sends" (§4.2) and multicast removes
	// it.
	Jitter time.Duration
	// LossRate drops datagrams with this probability (0 ≤ p < 1).
	LossRate float64
	// Trace is the ledger the network counts every site's datagrams
	// into, and the timeline its sends, receipts, drops and fault
	// toggles go to if it keeps one; nil builds a counters-only
	// collector of the network's own.
	Trace *trace.Collector
}

// Shape is a Shaper's verdict for one datagram. Drop destroys it; Dup
// delivers that many extra copies; Delay adds to the one-way latency
// (of every copy). Reordering falls out of Delay: a delayed datagram
// arrives after datagrams sent later without delay. Reliable (RPC)
// traffic honours only Drop: a connection neither duplicates nor
// reorders.
type Shape struct {
	Drop  bool
	Dup   int
	Delay time.Duration
}

// Shaper is the network's one per-datagram fault hook. It is consulted
// at send time for every datagram, reliable or not and before any
// other fault check — so it sees every send, even from a crashed
// sender — with the network lock held: it must not call back into the
// Network or block; schedule side effects (crashes, partitions)
// through rt.Runtime.After instead. The chaos explorer counts send
// points and faults exactly the k-th datagram through it; the netem
// replay carries the netem/v1 link vocabulary (drop, duplicate,
// delay/reorder) through it, so schedules written for the real network
// replay identically in the simulation.
type Shaper func(from, to tid.SiteID, payload any, reliable bool) Shape

// Network connects sites. It is safe for concurrent use from many
// runtime threads, and its fault switches (SetLossRate, SetDown,
// SetPartition, SetShaper) may be toggled at any moment mid-run:
// every datagram re-checks the current fault state at send and again
// at delivery time, and each toggle is recorded as a FaultInject or
// FaultClear trace event so a failing trace describes its own fault
// history.
type Network struct {
	r   rt.Runtime
	cfg Config
	tr  *trace.Collector

	mu       rt.Mutex
	handlers map[tid.SiteID]Handler
	down     map[tid.SiteID]bool
	cut      map[[2]tid.SiteID]bool
	nextFree map[tid.SiteID]rt.Time
	shaper   Shaper
}

// NewNetwork returns an empty network with the given fault/timing
// model.
func NewNetwork(r rt.Runtime, cfg Config) *Network {
	if cfg.Trace == nil {
		cfg.Trace = trace.NewCounters()
	}
	n := &Network{
		r:        r,
		cfg:      cfg,
		tr:       cfg.Trace,
		handlers: make(map[tid.SiteID]Handler),
		down:     make(map[tid.SiteID]bool),
		cut:      make(map[[2]tid.SiteID]bool),
		nextFree: make(map[tid.SiteID]rt.Time),
	}
	n.mu = r.NewMutex()
	return n
}

// Register installs the datagram handler for site, replacing any
// previous one (a recovered site re-registers). Registering clears the
// site's crashed state, with the matching FaultClear event if it was
// down.
func (n *Network) Register(site tid.SiteID, h Handler) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.handlers[site] = h
	if n.down[site] {
		n.down[site] = false
		n.tr.FaultClear(site, 0, "down")
	}
}

// Send queues one datagram. Delivery is asynchronous and may never
// happen (loss, crash, partition) — exactly the guarantee the
// transaction managers' own timeout/retry machinery assumes.
func (n *Network) Send(from, to tid.SiteID, payload any) {
	n.mu.Lock()
	defer n.mu.Unlock()
	leave := n.reserveSendLocked(from)
	n.deliverLocked(Datagram{From: from, To: to, Payload: payload}, leave)
}

// Multicast sends payload to every site in tos with a single send
// cycle and a single scheduling-delay draw.
func (n *Network) Multicast(from tid.SiteID, tos []tid.SiteID, payload any) {
	n.mu.Lock()
	defer n.mu.Unlock()
	leave := n.reserveSendLocked(from)
	for _, to := range tos {
		n.deliverLocked(Datagram{From: from, To: to, Payload: payload}, leave)
	}
}

// SendAll unicasts payload to each site in tos, paying one send cycle
// and one scheduling-delay draw per datagram — the coordinator's
// serial send loop.
func (n *Network) SendAll(from tid.SiteID, tos []tid.SiteID, payload any) {
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, to := range tos {
		leave := n.reserveSendLocked(from)
		n.deliverLocked(Datagram{From: from, To: to, Payload: payload}, leave)
	}
}

// SendReliable models connection-oriented traffic (the NetMsgServer
// RPC path): a caller-supplied one-way latency, no loss, no
// send-cycle serialization. Crashes and partitions still apply — a
// "reliable" connection to a dead site delivers nothing, which is
// what RPC timeouts detect.
func (n *Network) SendReliable(from, to tid.SiteID, payload any, latency time.Duration) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.tr.MsgSend(from, to, payload)
	if n.shapeLocked(from, to, payload, true).Drop {
		return
	}
	if n.down[from] {
		n.tr.MsgDrop(from, to, payload)
		return
	}
	d := Datagram{From: from, To: to, Payload: payload}
	n.r.After(latency, func() {
		n.mu.Lock()
		h := n.handlers[d.To]
		blocked := n.down[d.To] || n.down[d.From] || n.cut[linkKey(d.From, d.To)]
		if h == nil || blocked {
			n.tr.MsgDrop(d.From, d.To, d.Payload)
			n.mu.Unlock()
			return
		}
		n.tr.MsgRecv(d.To, d.From, d.Payload)
		n.mu.Unlock()
		h(d)
	})
}

// SetLossRate changes the datagram loss probability at runtime. The
// toggle is recorded as FaultInject (p > 0) or FaultClear (p == 0),
// but only when the rate actually changes, so redundant clears do not
// pollute the timeline.
func (n *Network) SetLossRate(p float64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if p == n.cfg.LossRate {
		return
	}
	n.cfg.LossRate = p
	if p > 0 {
		n.tr.FaultInject(0, 0, fmt.Sprintf("loss=%.2f", p))
	} else {
		n.tr.FaultClear(0, 0, "loss")
	}
}

// SetDown marks site crashed (true) or recovered (false). Datagrams
// to or from a crashed site vanish, including datagrams already in
// flight (delivery re-checks). Each effective toggle is recorded as a
// FaultInject/FaultClear event.
func (n *Network) SetDown(site tid.SiteID, down bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.down[site] == down {
		return
	}
	n.down[site] = down
	if down {
		n.tr.FaultInject(site, 0, "down")
	} else {
		n.tr.FaultClear(site, 0, "down")
	}
}

// SetPartition cuts (true) or heals (false) the link between a and b,
// in both directions. Datagrams in flight across the link when it is
// cut are lost (delivery re-checks). Each effective toggle is recorded
// as a FaultInject/FaultClear event.
func (n *Network) SetPartition(a, b tid.SiteID, broken bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	key := linkKey(a, b)
	if n.cut[key] == broken {
		return
	}
	n.cut[key] = broken
	if broken {
		n.tr.FaultInject(a, b, "cut")
	} else {
		n.tr.FaultClear(a, b, "cut")
	}
}

// SetShaper installs (or, with nil, removes) the per-datagram fault
// hook. Safe to toggle mid-run.
func (n *Network) SetShaper(f Shaper) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.shaper = f
}

// reserveSendLocked serializes sends from one site: each costs a send
// cycle plus a random scheduling delay, and both push back the
// sender's next send. It returns the moment the datagram leaves.
func (n *Network) reserveSendLocked(from tid.SiteID) rt.Time {
	now := n.r.Now()
	at := n.nextFree[from]
	if at < now {
		at = now
	}
	leave := at + n.cfg.SendCycle + n.jitterLocked()
	n.nextFree[from] = leave
	return leave
}

func (n *Network) jitterLocked() time.Duration {
	if n.cfg.Jitter <= 0 {
		return 0
	}
	return time.Duration(n.r.Rand().Int63n(int64(n.cfg.Jitter)))
}

// deliverLocked schedules the datagram's arrival and drops it if the
// fault model says so. Drop decisions happen at send time; crash and
// partition state are re-checked at delivery time, so a datagram in
// flight when its destination dies is lost too.
func (n *Network) deliverLocked(d Datagram, leave rt.Time) {
	n.tr.MsgSend(d.From, d.To, d.Payload)
	sh := n.shapeLocked(d.From, d.To, d.Payload, false)
	if sh.Drop {
		return
	}
	if n.down[d.From] {
		n.tr.MsgDrop(d.From, d.To, d.Payload)
		return
	}
	if n.cfg.LossRate > 0 && n.r.Rand().Float64() < n.cfg.LossRate {
		n.tr.MsgDrop(d.From, d.To, d.Payload)
		return
	}
	copies, extra := 1, time.Duration(0)
	if sh.Dup > 0 {
		copies += sh.Dup
		n.tr.FaultInject(d.From, d.To, fmt.Sprintf("dup=%d", sh.Dup))
	}
	if sh.Delay > 0 {
		extra = sh.Delay
		n.tr.FaultInject(d.From, d.To, fmt.Sprintf("delay=%s", sh.Delay))
	}
	arriveIn := leave - n.r.Now() + n.cfg.Latency + extra
	for i := 0; i < copies; i++ {
		if i > 0 {
			// Network-made duplicate: counted as its own send so the
			// sent/delivered/dropped ledger still balances.
			n.tr.MsgSend(d.From, d.To, d.Payload)
		}
		n.arriveLocked(d, arriveIn)
	}
}

// shapeLocked consults the fault hook for one datagram and, if it
// says drop, records the drop.
func (n *Network) shapeLocked(from, to tid.SiteID, payload any, reliable bool) Shape {
	if n.shaper == nil {
		return Shape{}
	}
	sh := n.shaper(from, to, payload, reliable)
	if sh.Drop {
		n.tr.FaultInject(from, to, "drop")
		n.tr.MsgDrop(from, to, payload)
	}
	return sh
}

// arriveLocked schedules one copy's arrival; crash and partition
// state are re-checked at delivery time.
func (n *Network) arriveLocked(d Datagram, arriveIn time.Duration) {
	n.r.After(arriveIn, func() {
		n.mu.Lock()
		h := n.handlers[d.To]
		blocked := n.down[d.To] || n.down[d.From] || n.cut[linkKey(d.From, d.To)]
		if h == nil || blocked {
			n.tr.MsgDrop(d.From, d.To, d.Payload)
			n.mu.Unlock()
			return
		}
		n.tr.MsgRecv(d.To, d.From, d.Payload)
		n.mu.Unlock()
		h(d)
	})
}

func linkKey(a, b tid.SiteID) [2]tid.SiteID {
	if a > b {
		a, b = b, a
	}
	return [2]tid.SiteID{a, b}
}
