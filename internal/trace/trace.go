// Package trace is the commit-protocol observability layer. A
// Collector keeps every site's ledger of primitives — log appends,
// forces and device writes, datagrams, retransmits and inquiries, and
// the transaction manager's own tallies — and, when built with New,
// a structured event timeline (log forces, datagrams, protocol
// phases, lock drops, crashes) with virtual timestamps, per-family
// counters and phase latencies.
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
// real node; the timeline, the per-family counters and the phase
// latencies cost a lock and an event each, and a counters-only
// Collector records none of them. Within a simulation the Collector
// performs no runtime primitives except reading the clock, so
// enabling the timeline never perturbs virtual time.
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
// manager RPC traffic is counted per site but not per family, so the
// per-family message counters measure exactly the commit protocol's
// datagram budget.
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
// site — the per-transaction budget the conformance tests pin.
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
// built by New — the event timeline. Methods are safe for concurrent
// use.
type Collector struct {
	// r stamps timeline events; nil for a counters-only collector.
	r rt.Runtime
	// sites maps each site to its ledger. The map is copy-on-write, a
	// new site added under mu, so counting reads it without a lock.
	sites atomic.Pointer[map[tid.SiteID]*ledger]

	mu       sync.Mutex
	seq      uint64
	events   []Event
	families map[tid.FamilyID]map[tid.SiteID]*FamilyCounters
	open     map[phaseKey]time.Duration
	phaseLat map[string]*stats.Sample
	// lockWaits counts contended lock acquisitions per site and lock
	// class. It is a pure counter — no timeline event — because lock
	// waits are a property of the host runtime, not of the simulated
	// protocol: in the cooperative simulation kernel no mutex is ever
	// held across a context switch, so these counters are provably
	// zero there, and a nonzero reading in simulation means the
	// determinism invariant was broken.
	lockWaits map[tid.SiteID]map[string]int
}

// New returns an empty collector that records the event timeline,
// stamped from r, besides the ledger.
func New(r rt.Runtime) *Collector {
	c := NewCounters()
	c.r = r
	return c
}

// NewCounters returns an empty counters-only collector: the ledger
// and lock-wait counts, no timeline.
func NewCounters() *Collector {
	c := &Collector{}
	c.resetLocked()
	return c
}

func (c *Collector) resetLocked() {
	c.sites.Store(&map[tid.SiteID]*ledger{})
	c.seq = 0
	c.events = nil
	c.families = make(map[tid.FamilyID]map[tid.SiteID]*FamilyCounters)
	c.open = make(map[phaseKey]time.Duration)
	c.phaseLat = make(map[string]*stats.Sample)
	c.lockWaits = make(map[tid.SiteID]map[string]int)
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

func (c *Collector) familyLocked(f tid.FamilyID, s tid.SiteID) *FamilyCounters {
	m := c.families[f]
	if m == nil {
		m = make(map[tid.SiteID]*FamilyCounters)
		c.families[f] = m
	}
	fc := m[s]
	if fc == nil {
		fc = &FamilyCounters{}
		m[s] = fc
	}
	return fc
}

// --- recording ---

// Count adds n to one of site's counters. It records no event: it is
// for the tallies with no timeline landmark of their own (IPCs, the
// transaction manager's outcomes and acks, oversize refusals).
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
	if !t.IsZero() {
		c.familyLocked(t.Family, site).LogAppends++
	}
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
	if !t.IsZero() {
		c.familyLocked(t.Family, site).LogForces++
	}
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

// MsgSend records a datagram queued at from. payload classification:
// TxPayload updates the family counters, bare Payload only the site's
// RPC counter.
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
	if tm && !t.IsZero() {
		fc := c.familyLocked(t.Family, site)
		switch kind {
		case EvMsgSend:
			fc.MsgsSent++
		case EvMsgRecv:
			fc.MsgsRecv++
		}
	}
}

// PhaseBegin records that site entered the named protocol phase for
// t and opens a latency measurement.
func (c *Collector) PhaseBegin(site tid.SiteID, t tid.TID, phase string) {
	if !c.timeline() {
		return
	}
	defer c.mu.Unlock()
	c.recordLocked(Event{Kind: EvPhaseBegin, Site: site, TID: t, Info: phase})
	c.open[phaseKey{site, t.Family, phase}] = c.r.Now()
}

// PhaseEnd closes the named phase, adding its duration to the phase's
// latency sample. A PhaseEnd with no matching open PhaseBegin is a
// no-op, so shared completion paths may call it unconditionally.
func (c *Collector) PhaseEnd(site tid.SiteID, t tid.TID, phase string) {
	if !c.timeline() {
		return
	}
	defer c.mu.Unlock()
	key := phaseKey{site, t.Family, phase}
	begin, ok := c.open[key]
	if !ok {
		return
	}
	delete(c.open, key)
	c.recordLocked(Event{Kind: EvPhaseEnd, Site: site, TID: t, Info: phase})
	s := c.phaseLat[phase]
	if s == nil {
		s = &stats.Sample{}
		c.phaseLat[phase] = s
	}
	s.AddDuration(c.r.Now() - begin)
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

// LockWait counts one contended acquisition of a lock of the given
// class at site: the caller's TryLock failed and it fell back to a
// blocking Lock. No timeline event is recorded — in simulation the
// count must stay zero (the kernel is cooperative), and on the real
// runtime an event per wait would perturb the very contention being
// measured.
func (c *Collector) LockWait(site tid.SiteID, class string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	m := c.lockWaits[site]
	if m == nil {
		m = make(map[string]int)
		c.lockWaits[site] = m
	}
	m[class]++
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

// Family returns t's family counters at site (zero value if never
// seen, and always on a counters-only collector).
func (c *Collector) Family(t tid.TID, site tid.SiteID) FamilyCounters {
	c.mu.Lock()
	defer c.mu.Unlock()
	if m := c.families[t.Family]; m != nil {
		if fc := m[site]; fc != nil {
			return *fc
		}
	}
	return FamilyCounters{}
}

// FamilyTotal sums t's family counters across every site.
func (c *Collector) FamilyTotal(t tid.TID) FamilyCounters {
	c.mu.Lock()
	defer c.mu.Unlock()
	var total FamilyCounters
	//lint:ordered commutative sum; visit order cannot be observed
	for _, fc := range c.families[t.Family] {
		total.LogAppends += fc.LogAppends
		total.LogForces += fc.LogForces
		total.MsgsSent += fc.MsgsSent
		total.MsgsRecv += fc.MsgsRecv
	}
	return total
}

// LockWaits returns site's contended-acquisition counts by lock
// class, as a copy.
func (c *Collector) LockWaits(site tid.SiteID) map[string]int {
	c.mu.Lock()
	defer c.mu.Unlock()
	src := c.lockWaits[site]
	if len(src) == 0 {
		return nil
	}
	out := make(map[string]int, len(src))
	//lint:ordered map copy; insertion order is unobservable
	for k, v := range src {
		out[k] = v
	}
	return out
}

// LockWaitTotal sums site's contended acquisitions across all lock
// classes.
func (c *Collector) LockWaitTotal(site tid.SiteID) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	total := 0
	//lint:ordered commutative sum; visit order cannot be observed
	for _, v := range c.lockWaits[site] {
		total += v
	}
	return total
}

// PhaseLatency returns the latency sample for the named phase, or an
// empty sample. The returned sample is a snapshot copy.
func (c *Collector) PhaseLatency(phase string) *stats.Sample {
	c.mu.Lock()
	defer c.mu.Unlock()
	if s := c.phaseLat[phase]; s != nil {
		return s.Clone()
	}
	return &stats.Sample{}
}

// Phases returns the names of all phases with latency samples, sorted.
func (c *Collector) Phases() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return det.SortedKeys(c.phaseLat)
}

// Reset clears events and counters (phase samples included), so one
// collector can bracket successive experiments.
func (c *Collector) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.resetLocked()
}
