// Package core implements the Camelot transaction manager (TranMan)
// — the paper's subject. It is "essentially a protocol processor":
// applications obtain transaction identifiers from it, data servers
// join transactions through it, and commit/abort calls invoke one of
// its distributed protocols:
//
//   - presumed-abort two-phase commit with Duchamp's delayed-commit
//     optimization (§3.2), plus the semi-optimized and unoptimized
//     variants the paper measures against each other (§4.2);
//   - the non-blocking three-phase protocol with a replication phase
//     (§3.3), including subordinate-to-coordinator promotion on
//     timeout and tolerance of multiple simultaneous coordinators;
//   - Paxos Commit (Gray & Lamport, "Consensus on Transaction
//     Commit"): one consensus instance per participant vote over a
//     shared acceptor set, with acceptor takeover in place of 2PC's
//     blocking inquiry;
//   - the read-only optimization for all three;
//   - the abort protocol, presumed-abort inquiries, and nested
//     transaction (Moss model) begin/commit/abort with distributed
//     child resolution;
//   - recovery's hand-off (Restore): the log analysis taken whole,
//     each unfinished family resumed through its timer step (tick).
//
// The manager is multithreaded exactly as §3.4 prescribes: a fixed
// pool of threads waits on a single input queue ("have every thread
// wait for any type of input, process the input, and resume
// waiting"); no thread is tied to a transaction; synchronous log
// forces hold the thread that issued them, which is why throughput
// with one thread collapses unless the log batches (Figures 4, 5).
// A client call may run on its caller's thread instead, under a slot
// borrowed from the same pool (rt.Pool.Call), so at most Threads
// inputs are in progress at once, whoever runs them.
package core

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"time"

	"camelot/internal/det"
	"camelot/internal/params"
	"camelot/internal/recman"
	"camelot/internal/rt"
	"camelot/internal/server"
	"camelot/internal/tid"
	"camelot/internal/trace"
	"camelot/internal/transport"
	"camelot/internal/wal"
	"camelot/internal/wire"
)

// Client-visible errors.
var (
	// ErrAborted reports that commit-transaction ended in abort.
	ErrAborted = errors.New("core: transaction aborted")
	// ErrClosed reports a call into a crashed or shut-down manager.
	ErrClosed = errors.New("core: transaction manager closed")
	// ErrUnknownTransaction reports an operation on a transaction the
	// manager has no record of.
	ErrUnknownTransaction = errors.New("core: unknown transaction")
)

// Options selects the commitment protocol for one transaction, the
// experimental knobs of §4.2.
type Options struct {
	// Protocol is the commitment protocol to run. ("The type of
	// commitment protocol to execute is specified as an argument to
	// the commit-transaction call.") The zero value is two-phase
	// commit; wire.NonBlocking is the three-phase protocol of §3.3;
	// wire.Paxos is Paxos Commit (Gray & Lamport, "Consensus on
	// Transaction Commit"): one Paxos consensus instance per
	// participant vote, decided by an acceptor set shared across all
	// instances of the transaction. Its fault-free path uses the
	// ballot-0 optimization — each participant sends its vote straight
	// to the acceptors — and one acceptor is co-located with the
	// coordinator so its phase-2b piggybacks as a local call.
	Protocol wire.Protocol
	// ForceSubCommit makes subordinates force their commit records.
	// False is the delayed-commit optimization: the subordinate drops
	// its locks before (lazily) writing the commit record.
	ForceSubCommit bool
	// ImmediateAck makes subordinates send the commit-ack as its own
	// datagram as soon as their commit record is stable. False delays
	// the ack for piggybacking/batching.
	ImmediateAck bool
	// Multicast sends each coordinator fan-out (prepare, replicate,
	// outcome) as one multicast rather than serial unicasts.
	Multicast bool
	// DisableReadOnlyOpt forces read-only sites through the full
	// update path, for the ablation experiment.
	DisableReadOnlyOpt bool
	// PaxosF is the number of acceptor failures Paxos Commit
	// tolerates; the acceptor set has min(2F+1, participants)
	// members. It is read only when Protocol is wire.Paxos; at
	// PaxosF = 0 that protocol degenerates to exactly two-phase
	// commit's delayed-commit budget.
	PaxosF int
}

// Config parameterizes a Manager. New takes it whole; nothing
// reconfigures a manager afterwards.
type Config struct {
	// Site is this manager's site identifier; it must be unique in
	// the network and nonzero.
	Site tid.SiteID
	// Threads is the pool size (the paper studies 1, 5, 20).
	Threads int
	// Params is the latency model.
	Params params.Params
	// Kernel, if non-nil, is the site's serially shared kernel
	// processor through which IPC costs are charged.
	Kernel *rt.CPU
	// RetryInterval is the coordinator's datagram retransmit period.
	RetryInterval time.Duration
	// InquireInterval is how long a prepared 2PC subordinate waits
	// for the outcome before (repeatedly) inquiring at the
	// coordinator.
	InquireInterval time.Duration
	// PromotionTimeout is how long a non-blocking subordinate waits
	// for protocol progress before promoting itself to coordinator.
	PromotionTimeout time.Duration
	// AckFlushInterval is how long a delayed commit-ack waits for a
	// datagram to its coordinator to ride on: an ack leaves in a datagram
	// of its own only after this long with nothing going its way.
	AckFlushInterval time.Duration
	// AckWait is how long a fault-free subordinate may take to
	// acknowledge an outcome: its lazily written commit record waits
	// for the log flusher and the ack for a ride (AckFlushInterval at
	// most), neither of which RetryInterval describes. A coordinator
	// waits at least that long before it first re-sends an outcome, so
	// the retransmit timer fires on loss and not on the delays the
	// delayed-commit optimization chose. The site assembly derives it
	// from its log flush interval and ack hold; zero, or anything
	// shorter than RetryInterval, means RetryInterval.
	AckWait time.Duration
	// RetryBackoffCap bounds the exponential backoff applied to
	// timer-driven retransmits and inquiries: retry round n waits a
	// jittered interval in [base, min(base<<n, RetryBackoffCap)],
	// where base is the timer's ordinary period (RetryInterval or
	// InquireInterval). The first round always waits exactly base, so
	// fault-free runs are unaffected. Zero means 8×RetryInterval.
	RetryBackoffCap time.Duration
	// ResolvedBackstop, if non-nil, is consulted when a status inquiry
	// names a family absent from both the family table and the
	// resolved-outcome memory — the case TruncateResolved creates. The
	// site assembly points it at the checkpoint image's outcome lists.
	// It is called without any manager lock held and must be safe for
	// concurrent use.
	ResolvedBackstop func(tid.FamilyID) wire.Outcome
	// Trace is the site's ledger, which the manager counts its forces,
	// retries, outcomes and acks into, and the timeline its protocol
	// events (forces, phases, lock drops) go to if it keeps one; nil
	// builds a counters-only collector of the manager's own.
	Trace *trace.Collector
}

func (c *Config) fillDefaults() {
	if c.Threads <= 0 {
		c.Threads = 5
	}
	if c.RetryInterval <= 0 {
		c.RetryInterval = 500 * time.Millisecond
	}
	if c.InquireInterval <= 0 {
		c.InquireInterval = time.Second
	}
	if c.PromotionTimeout <= 0 {
		c.PromotionTimeout = time.Second
	}
	if c.AckFlushInterval <= 0 {
		c.AckFlushInterval = 200 * time.Millisecond
	}
	if c.RetryBackoffCap <= 0 {
		c.RetryBackoffCap = 8 * c.RetryInterval
	}
}

// voteRetries bounds how many times a coordinator re-solicits missing
// phase-one votes before deciding abort (a subordinate that never
// answers is presumed failed, and abort is always safe before the
// commit point).
const voteRetries = 20

// Stats counts protocol activity: a view over the site's ledger.
type Stats struct {
	Begun      int
	Committed  int
	Aborted    int
	Promotions int // non-blocking subordinate → coordinator
	Inquiries  int
	// Retransmits counts datagrams re-sent by timer-driven retry
	// rounds — the traffic backoff exists to bound. Zero in any run
	// where every answer arrives before its timer fires.
	Retransmits     int
	AcksPiggybacked int
	AcksStandalone  int
	// ResolvedRetained is the number of finished families whose
	// outcome is still held in memory to answer status inquiries. It
	// grows until checkpoint truncation (TruncateResolved) folds
	// resolved outcomes into the checkpoint image — the bound on what
	// was previously an unbounded map.
	ResolvedRetained int
}

// Manager is one site's transaction manager.
//
// Concurrency follows §3.4's two-level structure (see locks.go and
// DESIGN.md §3.4): the family table is sharded with short-held shard
// locks, each family descriptor carries its own mutex serializing all
// protocol work on that family, and the manager-wide leftovers live
// behind small component locks. There is no manager-wide mutex, so
// distinct families commit in parallel on the real runtime.
type Manager struct {
	r   rt.Runtime
	cfg Config
	log *wal.Log
	net transport.Sender
	tr  *trace.Collector

	pool *rt.Pool

	// fams is the level-one table of family descriptors.
	fams *familyTable

	// idMu guards the identifier counters.
	idMu       rt.Mutex
	nextFamily uint32
	nextChild  uint32

	// ackMu guards the delayed-ack batches, one open batch per site owed
	// acks, and the datagram sequence counter (every outbound send stamps
	// one).
	ackMu       rt.Mutex
	pendingAcks map[tid.SiteID]*ackBatch
	seq         uint64

	// resMu guards the resolved-outcome memory: the outcome of every
	// finished family. It is what lets this site answer a promoted
	// coordinator's status inquiry (or an abort-intent solicitation)
	// correctly for a transaction it has already forgotten — without
	// it, survivors of a coordinator crash could assemble an abort
	// quorum for a transaction that committed everywhere. Recovery
	// repopulates it from the log; checkpointing truncates it
	// (TruncateResolved) once the checkpoint image absorbs the
	// outcome, with Config.ResolvedBackstop answering for truncated
	// families from that image.
	resMu    rt.Mutex
	resolved recman.OutcomeTable

	// lifeMu guards the shutdown flag.
	lifeMu rt.Mutex
	closed bool
}

// phase is a family's position in its commitment protocol at this
// site.
type phase uint8

const (
	phActive      phase = iota // operations running
	phPreparing                // coordinator: waiting for votes
	phIntent                   // NB coordinator: every vote in, forcing its replication record
	phReplicating              // NB coordinator: waiting for replicate acks
	phPrepared                 // subordinate: prepared, awaiting outcome
	phReplicated               // NB subordinate: commit intent forced
	phCommitted
	phAborted
)

// family is the per-family descriptor: "the principal data structure
// is a hash table of family descriptors, each with an attached hash
// table of transaction descriptors" (§3.4). Its mutex is the second
// locking level: all protocol work on the family runs under it, and
// it is released around log forces and vote rounds exactly as the
// old global lock was (relockFamily re-checks liveness afterwards).
type family struct {
	mu rt.Mutex
	// gone marks a forgotten descriptor. Set under mu by forget; a
	// thread that re-acquires mu must re-check it before acting. The
	// table entry is unlinked by unlockFamily after mu is released.
	gone bool

	id    tid.FamilyID
	opts  Options
	ph    phase
	coord bool // this site began the family

	participants []server.Participant // joined here, one per name, in name order
	txns         map[tid.TID]*txn

	// Coordinator state. Sets of sites and per-site values are slices
	// in site order (sites.go).
	remoteSites []tid.SiteID
	votes       []wire.SiteVote // phase-one answers, this site's included
	updateSubs  []tid.SiteID
	acksPending []tid.SiteID
	result      *rt.Future[wire.Outcome]
	localVote   wire.Vote // this site's own phase-one vote (either role)

	// Non-blocking state (both roles).
	nbSites      []tid.SiteID
	commitQuorum int
	abortQuorum  int
	nbVotes      []wire.SiteVote
	replAcks     []tid.SiteID // coordinator: who has forced intent
	replTargets  []tid.SiteID

	// Subordinate state.
	prepared bool
	outcome  wire.Outcome
	timer    rt.Timer
	nbState  wire.NBState
	attempts int // retry count in the current waiting phase
	// backoffN counts timer-driven retry rounds for backoff purposes;
	// reset with attempts when a phase makes real progress. boRng is
	// the per-family jitter source (see backoff.go), nil until the
	// first backed-off round.
	backoffN int
	boRng    *rand.Rand

	// Promotion (a subordinate acting as coordinator, §3.3 change 2).
	promoted     bool
	statusResp   []siteStatus
	abortIntents []tid.SiteID

	// Paxos Commit state (paxos.go). The acceptor role lives inside
	// the family descriptor — every acceptor is also a participant —
	// so it shares the family lock with the RM and leader roles.
	paxAcceptors []tid.SiteID         // the transaction's shared acceptor set
	paxPromised  uint64               // acceptor: highest promised ballot
	paxAcc       []wire.PaxosAccepted // acceptor: per-instance accepted state
	paxAccForced bool                 // acceptor: accepted record durable
	pax2b        []tid.SiteID         // leader: acceptors confirmed this round
	pax1b        []promise            // takeover leader: phase-1b replies
	paxBallot    uint64               // takeover leader: ballot being driven
	paxNack      uint64               // highest rival ballot seen in a nack
	paxRound     uint32               // takeover ballot round counter
	paxStage     uint8                // takeover: 0 idle, 1 awaiting 1b, 2 awaiting 2b
	// paxAcceptorOnly marks a family descriptor created by an acceptor
	// message (2a/1a) rather than by Join: the site serves its acceptor
	// role but its volatile RM state is gone, so it must answer No to a
	// late vote request (an empty participant list would otherwise read
	// as a ReadOnly vote and commit without this site's lost updates).
	paxAcceptorOnly bool
	// paxVoting marks a vote request being answered: set before the
	// family lock is released for the vote round and its force, never
	// cleared — the request ends in another phase or a forgotten
	// family. A duplicate request that finds it set is dropped.
	paxVoting bool
	// paxGen counts mutations of paxAcc. The acceptor flush snapshots
	// it before releasing the family lock for the log force; if it
	// changed while the lock was free, the forced record is stale and
	// the flush re-runs instead of marking paxAccForced.
	paxGen uint64
	// paxFlushing marks an accepted-record force in flight with the
	// family lock released. A second flush of the same batch stands
	// down: the first sends the 2b, or re-flushes if paxGen moved.
	paxFlushing bool
}

// txn is one transaction within a family.
type txn struct {
	id    tid.TID
	anc   []tid.TID    // ancestors, outermost first; nil at top level
	sites []tid.SiteID // remote sites this transaction touched
}

// New starts a transaction manager. The caller (the site assembly)
// routes inbound *wire.Msg datagrams to Deliver.
func New(r rt.Runtime, cfg Config, log *wal.Log, net transport.Sender) *Manager {
	cfg.fillDefaults()
	if cfg.Trace == nil {
		cfg.Trace = trace.NewCounters()
	}
	m := &Manager{
		r:           r,
		cfg:         cfg,
		log:         log,
		net:         net,
		tr:          cfg.Trace,
		fams:        newFamilyTable(r),
		pendingAcks: make(map[tid.SiteID]*ackBatch),
	}
	m.idMu = r.NewMutex()
	m.ackMu = r.NewMutex()
	m.resMu = r.NewMutex()
	m.lifeMu = r.NewMutex()
	m.pool = rt.NewPool(r, fmt.Sprintf("tranman%d-worker", cfg.Site), cfg.Threads, m.chargeCPU)
	return m
}

// Deliver posts an inbound datagram to the thread pool.
func (m *Manager) Deliver(msg *wire.Msg) {
	m.pool.Post(func() { m.handle(msg) })
}

// Stats returns a snapshot of protocol counters.
func (m *Manager) Stats() Stats {
	sc := m.tr.Site(m.cfg.Site)
	m.lockAttributed(m.resMu, lockClassResolved)
	retained := m.resolved.Len()
	m.resMu.Unlock()
	return Stats{Begun: sc.Begun, Committed: sc.Committed, Aborted: sc.Aborted,
		Promotions: sc.Promotions, Inquiries: sc.Inquiries, Retransmits: sc.Retransmits,
		AcksPiggybacked: sc.AcksPiggybacked, AcksStandalone: sc.AcksStandalone,
		ResolvedRetained: retained}
}

// ackWaitInterval is the first arm of the ack-wait timer. It is never
// on a latency path: the client already has its answer and the locks
// are dropped.
func (m *Manager) ackWaitInterval() time.Duration {
	if m.cfg.AckWait > m.cfg.RetryInterval {
		return m.cfg.AckWait
	}
	return m.cfg.RetryInterval
}

// QueueDepth reports inputs waiting for a pool thread. A client call
// run on its caller's thread never waits there.
func (m *Manager) QueueDepth() int { return m.pool.Len() }

// OutcomeOf reports this site's durable knowledge of family f's fate:
// the resolved-outcome memory, falling back to the checkpoint-image
// backstop for families truncated from RAM. OutcomeUnknown means the
// site never resolved the family — under presumed abort that reads as
// abort, and it is never contradictory evidence. The chaos oracle uses
// this to assert that no two sites ever hold definite, opposite
// outcomes for the same family.
func (m *Manager) OutcomeOf(f tid.FamilyID) wire.Outcome {
	return m.resolvedOutcome(f)
}

// Close shuts the manager down as a crash would: pending work is
// abandoned and callers get ErrClosed/aborted outcomes where a thread
// is still around to deliver them.
func (m *Manager) Close() {
	m.lockAttributed(m.lifeMu, lockClassLife)
	if m.closed {
		m.lifeMu.Unlock()
		return
	}
	m.closed = true
	m.lifeMu.Unlock()
	// Sorted so the order futures wake their waiters is replay-stable.
	all := m.fams.snapshot()
	for _, id := range det.SortedKeys(all) {
		f := all[id]
		m.lockAttributed(f.mu, lockClassFamily)
		if !f.gone {
			if f.result != nil {
				// The crash leaves the outcome undetermined: a promoted
				// subordinate may yet commit this transaction. Reporting
				// abort here would be a lie the client could act on.
				f.result.Set(wire.OutcomeUnknown)
			}
			if f.timer != nil {
				f.timer.Stop()
			}
		}
		m.unlockFamily(f)
	}
	m.pool.Close()
}

func (m *Manager) chargeCPU() {
	if m.cfg.Params.TMCPU > 0 {
		m.r.Sleep(m.cfg.Params.TMCPU)
	}
}

func (m *Manager) chargeClientIPC() {
	m.tr.Count(m.cfg.Site, trace.IPCs, 1)
	rt.Charge(m.r, m.cfg.Kernel, m.cfg.Params.LocalIPC+m.cfg.Params.KernelCPU)
}

// --- client interface ---

// Begin allocates a new top-level transaction (Figure 1 step 2).
func (m *Manager) Begin() (tid.TID, error) {
	m.chargeClientIPC()
	fut := rt.NewFuture[tid.TID](m.r)
	if !m.pool.Call(func() {
		m.lockAttributed(m.idMu, lockClassIDs)
		m.nextFamily++
		f := tid.MakeFamily(m.cfg.Site, m.nextFamily)
		m.idMu.Unlock()
		t := tid.Top(f)
		fam, _ := m.lockOrCreateFamily(f) // id is fresh: always created
		fam.coord = true
		fam.txns[t] = &txn{id: t}
		m.tr.Count(m.cfg.Site, trace.Begun, 1)
		m.unlockFamily(fam)
		fut.Set(t)
	}) {
		return tid.TID{}, ErrClosed
	}
	t, ok := fut.WaitTimeout(time.Minute)
	if !ok {
		return tid.TID{}, ErrClosed
	}
	return t, nil
}

// BeginChild allocates a nested transaction under parent at this
// site and returns it with its ancestor chain, outermost first: the
// parent's chain and the parent. Every operation of the child carries
// that chain. Any site a family reaches may begin children.
func (m *Manager) BeginChild(parent tid.TID) (tid.TID, []tid.TID, error) {
	m.chargeClientIPC()
	fut := rt.NewFuture[*txn](m.r)
	if !m.pool.Call(func() {
		fam := m.lockFamily(parent.Family)
		if fam == nil {
			fut.Set(nil)
			return
		}
		defer m.unlockFamily(fam)
		ptx := fam.txns[parent]
		if ptx == nil {
			fut.Set(nil)
			return
		}
		m.lockAttributed(m.idMu, lockClassIDs)
		m.nextChild++
		seq := tid.MakeSeq(m.cfg.Site, m.nextChild)
		m.idMu.Unlock()
		t := tid.TID{Family: parent.Family, Seq: seq}
		tx := &txn{id: t, anc: append(slices.Clip(ptx.anc), parent)}
		fam.txns[t] = tx
		fut.Set(tx)
	}) {
		return tid.TID{}, nil, ErrClosed
	}
	tx, ok := fut.WaitTimeout(time.Minute)
	if !ok {
		return tid.TID{}, nil, ErrClosed
	}
	if tx == nil {
		return tid.TID{}, nil, fmt.Errorf("%w: parent %s", ErrUnknownTransaction, parent)
	}
	return tx.id, tx.anc, nil
}

// Join registers p as a participant in t's family at this site
// (Figure 1 step 4). Data servers call it on the first operation a
// transaction performs there; at subordinate sites it also creates
// the family descriptor that the commit protocols will find.
func (m *Manager) Join(t tid.TID, anc []tid.TID, p server.Participant) error {
	fut := rt.NewFuture[error](m.r)
	if !m.pool.Call(func() {
		if m.isClosed() {
			fut.Set(ErrClosed)
			return
		}
		fam, _ := m.lockOrCreateFamily(t.Family)
		defer m.unlockFamily(fam)
		switch fam.ph {
		case phActive:
		default:
			fut.Set(fmt.Errorf("core: join after commitment began for %s", t))
			return
		}
		if fam.txns[t] == nil {
			fam.txns[t] = &txn{id: t, anc: anc}
		}
		fam.join(p)
		// A remote family that joins here might be orphaned: if the
		// operation's response is lost, the coordinator never learns
		// this site participates and its abort protocol will miss us.
		// The orphan timer inquires periodically; presumed abort
		// resolves a transaction the coordinator has forgotten.
		if t.Family.Origin() != m.cfg.Site && fam.timer == nil {
			m.schedule(fam, 4*m.cfg.InquireInterval)
		}
		fut.Set(nil)
	}) {
		return ErrClosed
	}
	err, ok := fut.WaitTimeout(time.Minute)
	if !ok {
		return ErrClosed
	}
	return err
}

// join adds p at its name's place in the participant list; a second
// join under the same name replaces the entry (f's lock held).
func (f *family) join(p server.Participant) {
	i, found := slices.BinarySearchFunc(f.participants, p.Name(), func(q server.Participant, name string) int {
		return strings.Compare(q.Name(), name)
	})
	if found {
		f.participants[i] = p
		return
	}
	f.participants = slices.Insert(f.participants, i, p)
}

// AddSites records that t spread to the given remote sites — the
// information the communication manager gleans by spying on
// response messages (§3.1).
func (m *Manager) AddSites(t tid.TID, sites []tid.SiteID) {
	fam := m.lockFamily(t.Family)
	if fam == nil {
		return
	}
	defer m.unlockFamily(fam)
	for _, s := range sites {
		if s == m.cfg.Site {
			continue
		}
		fam.remoteSites = unionSites(fam.remoteSites, s)
		if tx := fam.txns[t]; tx != nil {
			tx.sites = unionSites(tx.sites, s)
		}
	}
}

// TruncateResolved drops the in-memory outcome of families wholly
// absorbed by a checkpoint image. Safe because the image (reachable
// through the resolved backstop) now answers for them; without this,
// resolved-outcome memory grows without bound on a long-lived site.
// Stats.ResolvedRetained observes the effect.
func (m *Manager) TruncateResolved(absorbed *recman.OutcomeTable) {
	m.lockAttributed(m.resMu, lockClassResolved)
	m.resolved.Drop(absorbed)
	m.resMu.Unlock()
}
