// Package wire defines the datagram messages exchanged between
// transaction managers and their binary encoding.
//
// Camelot transaction managers do not use the communication manager
// for their own traffic: "transaction managers on different sites
// communicate using datagrams" and implement timeout/retry and
// duplicate detection themselves (paper §4.2, footnote 1). This
// package is that datagram vocabulary: the two-phase commit messages
// (with the presumed-abort and delayed-commit optimizations), the
// non-blocking protocol's replication-phase messages, the abort
// protocol, and the status/recovery messages.
package wire

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"camelot/internal/tid"
)

// Kind discriminates datagram types.
type Kind uint8

// Datagram kinds. The 2PC group implements presumed-abort two-phase
// commit; the NB group implements the non-blocking three-phase
// protocol of paper §3.3.
const (
	KInvalid Kind = iota

	// Two-phase commit.
	KPrepare   // coordinator → subordinate: phase one
	KVote      // subordinate → coordinator: yes / no / read-only
	KCommit    // coordinator → subordinate: outcome commit
	KAbort     // coordinator → subordinate: outcome abort (also abort protocol)
	KCommitAck // subordinate → coordinator, every protocol: outcome acknowledged (usually piggybacked)

	// Non-blocking commit.
	KNBPrepare      // carries full site list and quorum sizes (change 1)
	KNBVote         // subordinate vote
	KNBReplicate    // replication phase: commit-intent to force (change 3)
	KNBReplicateAck // intent forced
	KNBOutcome      // notify phase: final outcome
	_               // retired (NB-OUTCOME-ACK); the slot stays so later kinds keep their numbers
	KNBStatusReq    // promoted coordinator asking where everyone stands (change 2)
	KNBStatusResp   // site's protocol state
	KNBAbortIntent  // promoted coordinator soliciting an abort-quorum record
	KNBAbortIntentAck

	// Presumed-abort inquiry: a prepared subordinate asking the
	// coordinator for a forgotten transaction's outcome.
	KInquire

	// Nested-transaction resolution, fire-and-forget: a committed
	// child's locks and updates merge into its parent at every site
	// the child touched; an aborted child's are undone (Duchamp's
	// abort protocol for nested distributed transactions).
	KChildCommit
	KChildAbort

	// Paxos Commit (Gray & Lamport). One Paxos instance per
	// participant's vote; the acceptor set is shared across all
	// instances of a transaction, so phase 2a/2b datagrams batch every
	// instance a sender speaks for. Ballot 0 is reserved for the
	// participant itself (the ballot-0 optimization: the fault-free
	// path is one 2a round from each RM to the acceptors); takeover
	// ballots carry the promoting site's id.
	KPaxosPrepare // leader → RM: vote request; carries Sites + Acceptors
	KPaxosVote    // RM → leader directly: a No vote (abort short-circuit)
	KPaxos2a      // proposer → acceptor: ballot-0 RM vote, or takeover values
	KPaxos2b      // acceptor → leader: accepted; batches all instances
	KPaxos1a      // takeover leader → acceptor: prepare ballot b
	KPaxos1b      // acceptor → takeover leader: promise + accepted state
)

var kindNames = map[Kind]string{
	KPrepare: "PREPARE", KVote: "VOTE", KCommit: "COMMIT", KAbort: "ABORT",
	KCommitAck: "COMMIT-ACK", KNBPrepare: "NB-PREPARE", KNBVote: "NB-VOTE",
	KNBReplicate: "NB-REPLICATE", KNBReplicateAck: "NB-REPLICATE-ACK",
	KNBOutcome: "NB-OUTCOME", KNBStatusReq: "NB-STATUS-REQ", KNBStatusResp: "NB-STATUS-RESP",
	KNBAbortIntent: "NB-ABORT-INTENT", KNBAbortIntentAck: "NB-ABORT-INTENT-ACK",
	KInquire: "INQUIRE", KChildCommit: "CHILD-COMMIT", KChildAbort: "CHILD-ABORT",
	KPaxosPrepare: "PAXOS-PREPARE", KPaxosVote: "PAXOS-VOTE",
	KPaxos2a: "PAXOS-2A", KPaxos2b: "PAXOS-2B",
	KPaxos1a: "PAXOS-1A", KPaxos1b: "PAXOS-1B",
}

// String returns the protocol name of the kind.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return "INVALID"
}

// Registered reports whether k is a kind the protocol defines: a row
// in the kind registry (kindNames). The codec consults this in both
// directions, so registry membership — not a numeric range compare —
// is what makes a kind decodable on the wire.
func (k Kind) Registered() bool {
	_, ok := kindNames[k]
	return ok
}

// Kinds enumerates every registered kind in ascending order. Tests
// and coverage tables iterate this instead of hand-writing the first
// and last member, so a new kind is swept in automatically.
func Kinds() []Kind {
	ks := make([]Kind, 0, len(kindNames))
	//lint:ordered collect-then-sort; the sort below fixes the order
	for k := range kindNames {
		ks = append(ks, k)
	}
	sort.Slice(ks, func(i, j int) bool { return ks[i] < ks[j] })
	return ks
}

// Vote is a subordinate's phase-one answer.
type Vote uint8

// Phase-one votes. VoteReadOnly triggers the read-only optimization:
// the site writes no log records and is excluded from later phases.
const (
	VoteInvalid Vote = iota
	VoteYes
	VoteNo
	VoteReadOnly
)

// String returns the vote name.
func (v Vote) String() string {
	switch v {
	case VoteYes:
		return "YES"
	case VoteNo:
		return "NO"
	case VoteReadOnly:
		return "READ-ONLY"
	}
	return "INVALID"
}

// Outcome is a transaction's final fate.
type Outcome uint8

// Outcomes. OutcomeUnknown appears only in status responses from
// sites that have not yet learned the decision.
const (
	OutcomeUnknown Outcome = iota
	OutcomeCommit
	OutcomeAbort
)

// String returns the outcome name.
func (o Outcome) String() string {
	switch o {
	case OutcomeCommit:
		return "COMMIT"
	case OutcomeAbort:
		return "ABORT"
	}
	return "UNKNOWN"
}

// NBState is a site's position in the non-blocking protocol, reported
// in KNBStatusResp during coordinator promotion.
type NBState uint8

// Non-blocking protocol states, ordered by progress. A site holding
// NBReplicated has forced a commit-intent record and therefore may
// never join an abort quorum (change 4).
const (
	NBUnknown NBState = iota
	NBPrepared
	NBReplicated
	NBAbortIntent
	NBCommitted
	NBAborted
)

// String returns the state name.
func (s NBState) String() string {
	switch s {
	case NBPrepared:
		return "PREPARED"
	case NBReplicated:
		return "REPLICATED"
	case NBAbortIntent:
		return "ABORT-INTENT"
	case NBCommitted:
		return "COMMITTED"
	case NBAborted:
		return "ABORTED"
	}
	return "UNKNOWN"
}

// Protocol is the commitment protocol one commit-transaction call
// runs ("the type of commitment protocol to execute is specified as an
// argument to the commit-transaction call", §3.3). It is never encoded
// in a datagram or a log record — message kinds and record types imply
// it — but every layer that chooses, reports or recovers a protocol
// names it with this type.
type Protocol uint8

// Commit protocols. TwoPhase is the zero value, so an Options literal
// that names no protocol means presumed-abort two-phase commit.
const (
	TwoPhase    Protocol = iota // presumed-abort two-phase commit
	NonBlocking                 // the three-phase non-blocking protocol of §3.3
	Paxos                       // Paxos Commit (Gray & Lamport)
)

var protocolNames = [...]string{TwoPhase: "2pc", NonBlocking: "nb", Paxos: "paxos"}

// Protocols enumerates every protocol in value order. Harnesses range
// over it, not a literal list, so a new protocol is swept in.
func Protocols() []Protocol {
	ps := make([]Protocol, len(protocolNames))
	for i := range ps {
		ps[i] = Protocol(i)
	}
	return ps
}

// String returns the protocol's name as flags, the ctl line and chaos
// schedules spell it; a value outside the enum prints as a number that
// ParseProtocol refuses.
func (p Protocol) String() string {
	if int(p) < len(protocolNames) {
		return protocolNames[p]
	}
	return "Protocol(" + strconv.Itoa(int(p)) + ")"
}

// Check returns nil for a defined protocol and ParseProtocol's refusal
// for any other value: one sentence, wherever a bad value is caught.
func (p Protocol) Check() error {
	_, err := ParseProtocol(p.String())
	return err
}

// ParseProtocol is the one mapping from a protocol name to its value.
// The empty name means two-phase commit; any other unknown name is an
// error naming the accepted set, never a silent default.
func ParseProtocol(name string) (Protocol, error) {
	if name == "" {
		return TwoPhase, nil
	}
	for p, n := range protocolNames {
		if n == name {
			return Protocol(p), nil
		}
	}
	return 0, fmt.Errorf("unknown commit protocol %q (want one of %s)", name, strings.Join(protocolNames[:], ", "))
}

// MarshalText encodes p by name (JSON schedules and reports).
func (p Protocol) MarshalText() ([]byte, error) { return []byte(p.String()), nil }

// UnmarshalText decodes a name through ParseProtocol.
func (p *Protocol) UnmarshalText(text []byte) (err error) {
	*p, err = ParseProtocol(string(text))
	return err
}

// Msg is a transaction-manager datagram. A single struct with
// optional fields keeps the codec simple and mirrors a fixed wire
// header plus kind-specific body.
type Msg struct {
	Kind Kind
	TID  tid.TID
	// Parent is the committing child's parent on KChildCommit. It is
	// written but not read: a receiver takes the parent from the
	// ancestor chain the child joined with.
	Parent tid.TID
	From   tid.SiteID
	To     tid.SiteID
	// Seq is a per-sender sequence number. Core stamps it on every
	// send (send and fanout), and camelot-lint's tracebudget rule
	// takes that stamp as its witness that a send went through them.
	// No receiver reads it.
	Seq uint64
	// Flags carries the commit-variant options a subordinate must
	// honor (see the Flag constants).
	Flags uint8

	// Sites is the participant list (KPrepare under non-blocking,
	// KNBPrepare, KNBReplicate, KNBStatusReq).
	Sites []tid.SiteID
	// CommitQuorum and AbortQuorum are the replication-phase quorum
	// sizes (change 1 of §3.3).
	CommitQuorum uint16
	AbortQuorum  uint16

	Vote    Vote
	Outcome Outcome
	State   NBState

	// Votes carries the coordinator's collected phase-one information
	// in KNBReplicate — "the information that it will use to make the
	// commit/abort decision" — so any promoted coordinator can finish.
	Votes []SiteVote

	// AckTIDs carries piggybacked commit-acks for other transactions
	// (the delayed-commit optimization batches acks onto later
	// traffic).
	AckTIDs []tid.TID

	// Ballot is the Paxos ballot number (KPaxos1a/1b/2a/2b). Ballot 0
	// belongs to the instance's own RM; takeover ballots encode the
	// promoting site so concurrent promoters never collide.
	Ballot uint64
	// Acceptors is the transaction's shared acceptor set
	// (KPaxosPrepare), fixed by the original leader for the family's
	// lifetime.
	Acceptors []tid.SiteID
	// Accepted reports an acceptor's per-instance accepted state in
	// KPaxos1b: for each instance (keyed by the RM's site), the
	// highest ballot at which it accepted a value and that value.
	Accepted []PaxosAccepted
}

// Reset clears m for reuse, truncating (not freeing) its slices so
// the backing arrays are reused by the next UnmarshalInto: scalars
// zero, slice capacity survives.
func (m *Msg) Reset() {
	sites, votes, acks := m.Sites[:0], m.Votes[:0], m.AckTIDs[:0]
	acceptors, accepted := m.Acceptors[:0], m.Accepted[:0]
	*m = Msg{Sites: sites, Votes: votes, AckTIDs: acks,
		Acceptors: acceptors, Accepted: accepted}
}

// TraceKind names the message for trace timelines (trace.Payload).
func (m *Msg) TraceKind() string { return m.Kind.String() }

// TraceTID attributes the datagram to a transaction for trace
// counters (trace.TxPayload). A pure ack batch carries no header TID;
// it is attributed to its first piggybacked ack so single-transaction
// budget tests see it.
func (m *Msg) TraceTID() tid.TID {
	if m.TID.IsZero() && len(m.AckTIDs) > 0 {
		return m.AckTIDs[0]
	}
	return m.TID
}

// SiteVote pairs a participant with its phase-one vote.
type SiteVote struct {
	Site tid.SiteID
	Vote Vote
}

// PaxosAccepted is one instance's accepted state at an acceptor,
// reported in KPaxos1b: the RM whose vote the instance decides, the
// ballot at which the acceptor last accepted, and the accepted value.
type PaxosAccepted struct {
	Site   tid.SiteID
	Ballot uint64
	Vote   Vote
}

// Msg.Flags bits: the experiment knobs of §4.2 that change
// subordinate behavior.
const (
	// FlagForceSubCommit: the subordinate must force its commit
	// record before acknowledging (the unoptimized protocol).
	FlagForceSubCommit uint8 = 1 << iota
	// FlagImmediateAck: send the commit-ack as its own datagram
	// rather than delaying it for piggybacking.
	FlagImmediateAck
	// FlagNoReadOnlyOpt: read-only sites must run the full update
	// path (ablation).
	FlagNoReadOnlyOpt
)
