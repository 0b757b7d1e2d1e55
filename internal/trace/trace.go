// Package trace is the commit-protocol observability layer. A
// Collector keeps every site's ledger of primitives — log appends,
// forces and device writes, datagrams, retransmits and inquiries, and
// the transaction manager's own tallies and lock waits — and, when
// built with New, a structured event timeline (log forces, datagrams,
// protocol phases, lock drops, crashes) with virtual timestamps. The
// per-family budgets and the phase latencies are views over that
// timeline.
//
// The paper argues that transaction-management performance is
// dominated by countable primitives — log forces, datagrams, IPCs per
// commit — and evaluates every protocol variant by exactly those
// budgets ("the optimization saves one log force per update
// subordinate"; "a read-only subordinate typically writes no log
// records and exchanges only one round of messages"). The Collector
// makes those budgets observable so conformance tests can pin them.
//
// Counters are always on, the timeline is opt-in. Every instrumented
// component holds a Collector — a constructor given none builds a
// counters-only one (NewCounters) — and the ledger is the one place a
// primitive is counted, on the simulator and the real runtime alike:
// each component's statistics accessor is a view over it. A count is
// one atomic add, with no lock and no allocation, so it stays on in a
// real node; a timeline event costs a lock and an append, and a
// counters-only Collector records none. Within a simulation the
// Collector performs no runtime primitives except reading the clock,
// so enabling the timeline never perturbs virtual time.
package trace

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"camelot/internal/det"
	"camelot/internal/rt"
	"camelot/internal/stats"
	"camelot/internal/tid"
)

// Kind discriminates event types.
type Kind uint8

// Event kinds. EvLogForce is a protocol-issued synchronous force —
// the unit the paper's budgets count — while EvDeviceWrite is the
// physical log write that satisfies it; group commit makes the two
// diverge, which is the whole point of §3.5.
const (
	EvInvalid      Kind = iota
	EvLogAppend         // one record buffered into the site log
	EvLogForce          // a protocol-issued synchronous force (budget unit)
	EvDeviceWrite       // one physical log-device write (may cover many forces)
	EvLogFlush          // background flusher forcing the log tail
	EvMsgSend           // datagram queued at the sender
	EvMsgRecv           // datagram delivered at the receiver
	EvMsgDrop           // datagram lost (loss, crash, partition)
	EvPhaseBegin        // protocol phase entered at a site
	EvPhaseEnd          // protocol phase left at a site
	EvLockDrop          // site told its servers to drop a family's locks
	EvCrash             // site crashed
	EvRecover           // site recovered
	EvThreadSwitch      // simulation kernel resumed a thread
	EvTimerFire         // simulation kernel fired a timer
	EvFaultInject       // a network or storage fault was switched on
	EvFaultClear        // a previously injected fault was switched off
	EvCheckpoint        // disk manager materialized the log into the image
	EvRetry             // timer-driven retransmit or inquiry round
	EvBackoff           // retry timer re-armed with a backed-off delay
)

var kindNames = map[Kind]string{
	EvLogAppend: "LogAppend", EvLogForce: "LogForce",
	EvDeviceWrite: "DeviceWrite", EvLogFlush: "LogFlush",
	EvMsgSend: "MsgSend", EvMsgRecv: "MsgRecv", EvMsgDrop: "MsgDrop",
	EvPhaseBegin: "PhaseBegin", EvPhaseEnd: "PhaseEnd",
	EvLockDrop: "LockDrop", EvCrash: "Crash", EvRecover: "Recover",
	EvThreadSwitch: "ThreadSwitch", EvTimerFire: "TimerFire",
	EvFaultInject: "FaultInject", EvFaultClear: "FaultClear",
	EvCheckpoint: "Checkpoint",
	EvRetry:      "Retry", EvBackoff: "Backoff",
}

// String returns the event kind's name.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return "INVALID"
}

// Event is one timeline entry. Site is where it happened; Peer is the
// other endpoint for message events (the destination of a send, the
// source of a receive). TID is zero for events not attributable to a
// transaction. Info carries the message kind, record type, phase
// name, or thread name.
type Event struct {
	Seq   uint64
	At    time.Duration // virtual time
	Kind  Kind
	Site  tid.SiteID
	Peer  tid.SiteID
	TID   tid.TID
	Info  string
	Bytes int
}

// String renders the event as one timeline line.
func (e Event) String() string {
	s := fmt.Sprintf("%10.3fms #%-4d %-12s", float64(e.At)/float64(time.Millisecond), e.Seq, e.Kind)
	if e.Site != 0 {
		s += fmt.Sprintf(" %s", e.Site)
	}
	switch e.Kind {
	case EvMsgSend, EvMsgDrop:
		s += fmt.Sprintf("→%s", e.Peer)
	case EvMsgRecv:
		s += fmt.Sprintf("←%s", e.Peer)
	case EvFaultInject, EvFaultClear:
		if e.Peer != 0 {
			s += fmt.Sprintf("↔%s", e.Peer)
		}
	}
	if e.Info != "" {
		s += " " + e.Info
	}
	if !e.TID.IsZero() {
		s += " " + e.TID.String()
	}
	if e.Bytes > 0 {
		s += fmt.Sprintf(" (%dB)", e.Bytes)
	}
	return s
}

// Payload lets the transport describe a datagram payload without
// depending on the payload's package. wire.Msg implements it.
type Payload interface {
	TraceKind() string
}

// TxPayload additionally attributes the payload to a transaction.
// Only transaction-manager datagrams implement it; communication-
// manager RPC traffic is counted per site but carries no TID on the
// timeline, so the per-family message counts measure exactly the
// commit protocol's datagram budget.
type TxPayload interface {
	Payload
	TraceTID() tid.TID
}

// SiteCounters is a snapshot of one site's ledger.
type SiteCounters struct {
	LogAppends   int `json:"log_appends"`   // records buffered
	LogForces    int `json:"log_forces"`    // protocol-issued synchronous forces
	DeviceWrites int `json:"device_writes"` // physical log writes that succeeded
	BytesWritten int `json:"bytes_written"` // record bytes in those writes
	MsgsSent     int `json:"msgs_sent"`     // TM datagrams queued
	MsgsRecv     int `json:"msgs_recv"`     // TM datagrams the site's transport took in
	// MsgsDropped counts datagrams lost, whatever they carried: a
	// datagram that did not decode has no payload to classify. A drop
	// is charged to the site whose transport lost it — the simulated
	// network decides every loss at the sender, a UDP peer loses
	// datagrams either way.
	MsgsDropped int `json:"msgs_dropped"`
	RPCs        int `json:"rpcs"` // communication-manager datagrams queued
	IPCs        int `json:"ipcs"` // local IPC round trips charged
	// Retransmits and Inquiries count the timer-driven recovery
	// traffic: datagrams re-sent because an answer never came, and
	// outcome inquiries from blocked subordinates. Fault-free runs
	// record zero of both, so they are omitted from reports (and the
	// pre-existing goldens) when empty.
	Retransmits int `json:"retransmits,omitempty"` // timer-driven datagram re-sends
	Inquiries   int `json:"inquiries,omitempty"`   // outcome inquiries sent

	// The rest are the ledger's views for the components that count
	// into it — the UDP transport's refused oversize sends, the
	// transaction manager's tallies — and are kept out of reports.
	Oversize        int `json:"-"` // sends refused as larger than one datagram (also drops)
	Begun           int `json:"-"` // top-level transactions begun here
	Committed       int `json:"-"` // families committed here
	Aborted         int `json:"-"` // families aborted here
	Promotions      int `json:"-"` // subordinates promoted to coordinator
	AcksPiggybacked int `json:"-"` // commit-acks that rode another datagram
	AcksStandalone  int `json:"-"` // commit-acks sent in a datagram of their own

	// The lock waits count contended acquisitions of the transaction
	// manager's locks, one counter per lock class: a TryLock failed
	// and the caller fell back to a blocking Lock. They have no
	// timeline event: lock waits are a property of the host runtime,
	// not of the simulated protocol, and an event per wait would
	// perturb the contention being measured. The cooperative
	// simulation kernel never switches threads while a lock is held,
	// so a nonzero count in simulation means the determinism
	// invariant broke.
	FamilyLockWaits   int `json:"-"`
	AckLockWaits      int `json:"-"`
	ResolvedLockWaits int `json:"-"`
	IDLockWaits       int `json:"-"`
	LifeLockWaits     int `json:"-"`
}

// Counter names one counter of a site's ledger. The recording methods
// count the primitives they record; Count bumps the rest.
type Counter uint8

// Ledger counters, one per SiteCounters field.
const (
	LogAppends Counter = iota
	LogForces
	DeviceWrites
	BytesWritten
	MsgsSent
	MsgsRecv
	MsgsDropped
	RPCs
	IPCs
	Retransmits
	Inquiries
	Oversize
	Begun
	Committed
	Aborted
	Promotions
	AcksPiggybacked
	AcksStandalone
	FamilyLockWaits
	AckLockWaits
	ResolvedLockWaits
	IDLockWaits
	LifeLockWaits
	numCounters
)

// fields maps each counter to its field of a snapshot.
var fields = [numCounters]func(*SiteCounters) *int{
	LogAppends:      func(s *SiteCounters) *int { return &s.LogAppends },
	LogForces:       func(s *SiteCounters) *int { return &s.LogForces },
	DeviceWrites:    func(s *SiteCounters) *int { return &s.DeviceWrites },
	BytesWritten:    func(s *SiteCounters) *int { return &s.BytesWritten },
	MsgsSent:        func(s *SiteCounters) *int { return &s.MsgsSent },
	MsgsRecv:        func(s *SiteCounters) *int { return &s.MsgsRecv },
	MsgsDropped:     func(s *SiteCounters) *int { return &s.MsgsDropped },
	RPCs:            func(s *SiteCounters) *int { return &s.RPCs },
	IPCs:            func(s *SiteCounters) *int { return &s.IPCs },
	Retransmits:     func(s *SiteCounters) *int { return &s.Retransmits },
	Inquiries:       func(s *SiteCounters) *int { return &s.Inquiries },
	Oversize:        func(s *SiteCounters) *int { return &s.Oversize },
	Begun:           func(s *SiteCounters) *int { return &s.Begun },
	Committed:       func(s *SiteCounters) *int { return &s.Committed },
	Aborted:         func(s *SiteCounters) *int { return &s.Aborted },
	Promotions:      func(s *SiteCounters) *int { return &s.Promotions },
	AcksPiggybacked: func(s *SiteCounters) *int { return &s.AcksPiggybacked },
	AcksStandalone:  func(s *SiteCounters) *int { return &s.AcksStandalone },

	FamilyLockWaits:   func(s *SiteCounters) *int { return &s.FamilyLockWaits },
	AckLockWaits:      func(s *SiteCounters) *int { return &s.AckLockWaits },
	ResolvedLockWaits: func(s *SiteCounters) *int { return &s.ResolvedLockWaits },
	IDLockWaits:       func(s *SiteCounters) *int { return &s.IDLockWaits },
	LifeLockWaits:     func(s *SiteCounters) *int { return &s.LifeLockWaits },
}

// Add returns the counter-wise sum of s and o.
func (s SiteCounters) Add(o SiteCounters) SiteCounters {
	for _, f := range fields {
		*f(&s) += *f(&o)
	}
	return s
}

// Sub returns how much every counter grew from the earlier snapshot o
// to s.
func (s SiteCounters) Sub(o SiteCounters) SiteCounters {
	for _, f := range fields {
		*f(&s) -= *f(&o)
	}
	return s
}

// ledger is one site's live counters.
type ledger [numCounters]atomic.Int64

func (l *ledger) snapshot() SiteCounters {
	var s SiteCounters
	for k, f := range fields {
		*f(&s) = int(l[k].Load())
	}
	return s
}

// FamilyCounters aggregates one transaction family's activity at one
// site — the per-transaction budget the conformance tests pin. It is
// read from the timeline.
type FamilyCounters struct {
	LogAppends int
	LogForces  int
	MsgsSent   int
	MsgsRecv   int
}

type phaseKey struct {
	site  tid.SiteID
	fam   tid.FamilyID
	phase string
}

// Collector is the ledger of every site it has seen, plus — when
// built by New — the event timeline and the phases open on it.
// Methods are safe for concurrent use.
type Collector struct {
	// r stamps timeline events; nil for a counters-only collector.
	r rt.Runtime
	// sites maps each site to its ledger. The map is copy-on-write, a
	// new site added under mu, so counting reads it without a lock.
	sites atomic.Pointer[map[tid.SiteID]*ledger]

	mu     sync.Mutex
	seq    uint64
	events []Event
	// open holds the phases begun and not yet ended, so PhaseEnd
	// records nothing for a phase that is not open.
	open map[phaseKey]bool
}

// New returns an empty collector that records the event timeline,
// stamped from r, besides the ledger.
func New(r rt.Runtime) *Collector {
	c := NewCounters()
	c.r = r
	return c
}

// NewCounters returns an empty counters-only collector: the ledger,
// no timeline.
func NewCounters() *Collector {
	c := &Collector{}
	c.resetLocked()
	return c
}

func (c *Collector) resetLocked() {
	c.sites.Store(&map[tid.SiteID]*ledger{})
	c.seq = 0
	c.events = nil
	c.open = make(map[phaseKey]bool)
}

// ledger returns site's ledger, adding it on first use.
func (c *Collector) ledger(site tid.SiteID) *ledger {
	if l := (*c.sites.Load())[site]; l != nil {
		return l
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	old := *c.sites.Load()
	if l := old[site]; l != nil {
		return l
	}
	m := make(map[tid.SiteID]*ledger, len(old)+1)
	//lint:ordered map copy; insertion order is unobservable
	for s, l := range old {
		m[s] = l
	}
	l := new(ledger)
	m[site] = l
	c.sites.Store(&m)
	return l
}

// timeline takes the lock for a timeline update, or reports false on
// a counters-only collector. A caller that got true unlocks c.mu.
func (c *Collector) timeline() bool {
	if c.r == nil {
		return false
	}
	c.mu.Lock()
	return true
}

// recordLocked appends one event to the timeline. Callers hold c.mu.
func (c *Collector) recordLocked(ev Event) {
	c.seq++
	ev.Seq = c.seq
	ev.At = c.r.Now()
	c.events = append(c.events, ev)
}

// --- recording ---

// Count adds n to one of site's counters. It records no event: it is
// for the tallies with no timeline landmark of their own (IPCs, the
// transaction manager's outcomes, acks and lock waits, oversize
// refusals).
func (c *Collector) Count(site tid.SiteID, k Counter, n int) {
	c.ledger(site)[k].Add(int64(n))
}

// LogAppend records one record buffered into site's log.
func (c *Collector) LogAppend(site tid.SiteID, t tid.TID, recType string, bytes int) {
	c.Count(site, LogAppends, 1)
	if !c.timeline() {
		return
	}
	defer c.mu.Unlock()
	c.recordLocked(Event{Kind: EvLogAppend, Site: site, TID: t, Info: recType, Bytes: bytes})
}

// LogForce records a protocol-issued synchronous force on behalf of
// t. This is the budget unit ("two-phase commitment requires one
// force per site"), independent of how group commit coalesces the
// underlying device writes.
func (c *Collector) LogForce(site tid.SiteID, t tid.TID, recType string) {
	c.Count(site, LogForces, 1)
	if !c.timeline() {
		return
	}
	defer c.mu.Unlock()
	c.recordLocked(Event{Kind: EvLogForce, Site: site, TID: t, Info: recType})
}

// DeviceWrite records one physical log write, which the device
// accepted, covering records totalling bytes. A refused write is no
// device write and is not recorded.
func (c *Collector) DeviceWrite(site tid.SiteID, records, bytes int) {
	l := c.ledger(site)
	l[DeviceWrites].Add(1)
	l[BytesWritten].Add(int64(bytes))
	if !c.timeline() {
		return
	}
	defer c.mu.Unlock()
	c.recordLocked(Event{Kind: EvDeviceWrite, Site: site,
		Info: fmt.Sprintf("%d rec", records), Bytes: bytes})
}

// LogFlush records the background flusher forcing the log tail.
func (c *Collector) LogFlush(site tid.SiteID) { c.event(Event{Kind: EvLogFlush, Site: site}) }

// MsgSend records a datagram queued at from. A TxPayload counts as a
// transaction-manager datagram and its event carries the payload's
// TID; a bare Payload counts only as an RPC.
func (c *Collector) MsgSend(from, to tid.SiteID, payload any) {
	c.msgEvent(EvMsgSend, from, to, payload)
}

// MsgRecv records a datagram taken in by to's transport.
func (c *Collector) MsgRecv(to, from tid.SiteID, payload any) {
	c.msgEvent(EvMsgRecv, to, from, payload)
}

// MsgDrop records a datagram lost by site's transport; peer is the
// other end. payload may be nil: a datagram that did not decode.
func (c *Collector) MsgDrop(site, peer tid.SiteID, payload any) {
	c.msgEvent(EvMsgDrop, site, peer, payload)
}

func (c *Collector) msgEvent(kind Kind, site, peer tid.SiteID, payload any) {
	tp, tm := payload.(TxPayload)
	l := c.ledger(site)
	switch {
	case kind == EvMsgDrop:
		l[MsgsDropped].Add(1)
	case kind == EvMsgSend && tm:
		l[MsgsSent].Add(1)
	case kind == EvMsgSend:
		l[RPCs].Add(1)
	case tm:
		l[MsgsRecv].Add(1)
	}
	if !c.timeline() {
		return
	}
	defer c.mu.Unlock()
	var t tid.TID
	info := fmt.Sprintf("%T", payload)
	if p, ok := payload.(Payload); ok {
		info = p.TraceKind()
	}
	if tm {
		t = tp.TraceTID()
	}
	c.recordLocked(Event{Kind: kind, Site: site, Peer: peer, TID: t, Info: info})
}

// PhaseBegin records that site entered the named protocol phase for
// t and opens it. Beginning an open phase again restarts its clock.
func (c *Collector) PhaseBegin(site tid.SiteID, t tid.TID, phase string) {
	if !c.timeline() {
		return
	}
	defer c.mu.Unlock()
	c.recordLocked(Event{Kind: EvPhaseBegin, Site: site, TID: t, Info: phase})
	c.open[phaseKey{site, t.Family, phase}] = true
}

// PhaseEnd closes the named phase. A PhaseEnd with no matching open
// PhaseBegin records nothing, so shared completion paths may call it
// unconditionally.
func (c *Collector) PhaseEnd(site tid.SiteID, t tid.TID, phase string) {
	if !c.timeline() {
		return
	}
	defer c.mu.Unlock()
	key := phaseKey{site, t.Family, phase}
	if !c.open[key] {
		return
	}
	delete(c.open, key)
	c.recordLocked(Event{Kind: EvPhaseEnd, Site: site, TID: t, Info: phase})
}

// LockDrop records that site told its servers to release t's locks.
func (c *Collector) LockDrop(site tid.SiteID, t tid.TID) {
	c.event(Event{Kind: EvLockDrop, Site: site, TID: t})
}

// Retry records one timer-driven retransmit round at site: n datagrams
// of the named flavor re-sent because no answer arrived. It bumps the
// site's Retransmits counter by n; fault-free runs record none.
func (c *Collector) Retry(site tid.SiteID, t tid.TID, what string, n int) {
	c.Count(site, Retransmits, n)
	c.event(Event{Kind: EvRetry, Site: site, TID: t, Info: what})
}

// Inquiry records one outcome inquiry sent from a blocked subordinate
// at site to the family's coordinator.
func (c *Collector) Inquiry(site tid.SiteID, t tid.TID) {
	c.Count(site, Inquiries, 1)
	c.event(Event{Kind: EvRetry, Site: site, TID: t, Info: "inquire"})
}

// Backoff records a retry timer re-armed with a backed-off delay
// (strictly above the base interval). No counter: every backoff
// accompanies a Retry/Inquiry that is already counted.
func (c *Collector) Backoff(site tid.SiteID, t tid.TID, d time.Duration) {
	if !c.timeline() {
		return
	}
	defer c.mu.Unlock()
	c.recordLocked(Event{Kind: EvBackoff, Site: site, TID: t, Info: fmt.Sprintf("delay=%s", d)})
}

// FaultInject records a fault being switched on: a datagram-loss rate,
// a site marked down, a cut link, or a chaos-schedule injection. Site
// and peer locate the fault (both zero for cluster-wide faults); desc
// names it ("loss=0.30", "cut", "drop wire.Msg"). Together with
// FaultClear this makes failing traces self-describing: the timeline
// itself records which faults were active when.
func (c *Collector) FaultInject(site, peer tid.SiteID, desc string) {
	c.event(Event{Kind: EvFaultInject, Site: site, Peer: peer, Info: desc})
}

// FaultClear records a previously injected fault being switched off.
func (c *Collector) FaultClear(site, peer tid.SiteID, desc string) {
	c.event(Event{Kind: EvFaultClear, Site: site, Peer: peer, Info: desc})
}

// Checkpoint records the disk manager materializing the durable log
// into the page image; records is how many log records the truncation
// dropped. Checkpoint boundaries matter to fault analysis — a crash
// just after one recovers from the image, a crash during one must
// tolerate the image/log overlap — so the timeline marks them.
func (c *Collector) Checkpoint(site tid.SiteID, records int) {
	if !c.timeline() {
		return
	}
	defer c.mu.Unlock()
	c.recordLocked(Event{Kind: EvCheckpoint, Site: site, Info: fmt.Sprintf("cut=%d", records)})
}

// Crash records a site crash.
func (c *Collector) Crash(site tid.SiteID) { c.event(Event{Kind: EvCrash, Site: site}) }

// Recover records a site recovery.
func (c *Collector) Recover(site tid.SiteID) { c.event(Event{Kind: EvRecover, Site: site}) }

// ThreadSwitch records the simulation kernel resuming a thread. Wire
// it to sim.Hooks only when scheduling-level detail is wanted — the
// volume is high.
func (c *Collector) ThreadSwitch(name string) { c.event(Event{Kind: EvThreadSwitch, Info: name}) }

// TimerFire records the simulation kernel firing a timer.
func (c *Collector) TimerFire(name string) { c.event(Event{Kind: EvTimerFire, Info: name}) }

// event records one timeline event that counts nothing.
func (c *Collector) event(ev Event) {
	if !c.timeline() {
		return
	}
	defer c.mu.Unlock()
	c.recordLocked(ev)
}

// --- reading ---

// Events returns a copy of the timeline in order.
func (c *Collector) Events() []Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Event, len(c.events))
	copy(out, c.events)
	return out
}

// Site returns a snapshot of site's ledger (zero value if never seen).
func (c *Collector) Site(s tid.SiteID) SiteCounters {
	if l := (*c.sites.Load())[s]; l != nil {
		return l.snapshot()
	}
	return SiteCounters{}
}

// Sites returns the ids of all sites with recorded activity, sorted.
func (c *Collector) Sites() []tid.SiteID {
	return det.SortedKeys(*c.sites.Load())
}

// Family returns t's family counters at site: the log appends and
// forces, and the datagrams sent and received, whose timeline events
// carry a TID of t's family (zero value if never seen, and always on a
// counters-only collector).
func (c *Collector) Family(t tid.TID, site tid.SiteID) FamilyCounters {
	return c.family(t.Family, func(s tid.SiteID) bool { return s == site })
}

// FamilyTotal sums t's family counters across every site.
func (c *Collector) FamilyTotal(t tid.TID) FamilyCounters {
	return c.family(t.Family, func(tid.SiteID) bool { return true })
}

func (c *Collector) family(f tid.FamilyID, at func(tid.SiteID) bool) FamilyCounters {
	c.mu.Lock()
	defer c.mu.Unlock()
	var fc FamilyCounters
	for _, ev := range c.events {
		if ev.TID.IsZero() || ev.TID.Family != f || !at(ev.Site) {
			continue
		}
		switch ev.Kind {
		case EvLogAppend:
			fc.LogAppends++
		case EvLogForce:
			fc.LogForces++
		case EvMsgSend:
			fc.MsgsSent++
		case EvMsgRecv:
			fc.MsgsRecv++
		}
	}
	return fc
}

// PhaseLatency returns the latency sample for the named phase, or an
// empty sample: one duration per PhaseEnd on the timeline, measured
// from the latest PhaseBegin of the same site, family and phase.
func (c *Collector) PhaseLatency(phase string) *stats.Sample {
	if s := c.phaseSamples()[phase]; s != nil {
		return s
	}
	return &stats.Sample{}
}

// Phases returns the names of all phases that have ended, sorted.
func (c *Collector) Phases() []string {
	return det.SortedKeys(c.phaseSamples())
}

// phaseSamples pairs every PhaseEnd on the timeline with its begin and
// returns the durations by phase name.
func (c *Collector) phaseSamples() map[string]*stats.Sample {
	c.mu.Lock()
	defer c.mu.Unlock()
	begun := make(map[phaseKey]time.Duration)
	out := make(map[string]*stats.Sample)
	for _, ev := range c.events {
		key := phaseKey{ev.Site, ev.TID.Family, ev.Info}
		switch ev.Kind {
		case EvPhaseBegin:
			begun[key] = ev.At
		case EvPhaseEnd:
			if out[ev.Info] == nil {
				out[ev.Info] = &stats.Sample{}
			}
			out[ev.Info].AddDuration(ev.At - begun[key])
		}
	}
	return out
}

// Reset clears events, counters and open phases, so one collector can
// bracket successive experiments.
func (c *Collector) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.resetLocked()
}
