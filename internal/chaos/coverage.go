package chaos

import "camelot/internal/wire"

// KindCoverage declares how the systematic fault sweep reaches one
// wire.Kind. A kind either appears in a fault-free pilot's
// injection-point enumeration — meaning every sweep over that
// protocol can target its datagrams directly — or is reachable only
// once injected faults steer the protocol onto its recovery paths,
// in which case FaultOnly says why.
type KindCoverage struct {
	// Pilots lists the protocols whose fault-free pilot runs send the
	// kind.
	Pilots []wire.Protocol
	// FaultOnly, for kinds with no pilot, explains what has to go
	// wrong before the kind appears on the wire.
	FaultOnly string
}

// kindCoverage is the injection-coverage table: one row per protocol
// kind, stating how chaos testing reaches it. The table is pinned
// from both sides — statically, the kindsurface analyzer fails the
// lint run if a wire.Kind constant has no row here (a kind the sweep
// cannot name is a kind whose faults are never explored); dynamically,
// TestPilotKindCoverage replays the canonical pilots and fails if the
// kinds they actually send drift from the Pilots column in either
// direction.
var kindCoverage = map[wire.Kind]KindCoverage{
	wire.KPrepare:   {Pilots: []wire.Protocol{wire.TwoPhase}},
	wire.KVote:      {Pilots: []wire.Protocol{wire.TwoPhase}},
	wire.KCommit:    {Pilots: []wire.Protocol{wire.TwoPhase, wire.Paxos}},
	wire.KCommitAck: {Pilots: []wire.Protocol{wire.TwoPhase, wire.NonBlocking}},
	wire.KAbort: {FaultOnly: "under presumed abort a notification is sent only " +
		"once a fault (lost vote, crashed subordinate) forces an abort decision"},
	wire.KInquire: {FaultOnly: "inquiries need a blocked or orphaned subordinate, " +
		"i.e. a coordinator that crashed or went silent mid-protocol"},

	wire.KNBPrepare:      {Pilots: []wire.Protocol{wire.NonBlocking}},
	wire.KNBVote:         {Pilots: []wire.Protocol{wire.NonBlocking}},
	wire.KNBReplicate:    {Pilots: []wire.Protocol{wire.NonBlocking}},
	wire.KNBReplicateAck: {Pilots: []wire.Protocol{wire.NonBlocking}},
	wire.KNBOutcome:      {Pilots: []wire.Protocol{wire.NonBlocking}},
	wire.KNBStatusReq: {FaultOnly: "the promotion status exchange starts only when a " +
		"subordinate times out and promotes itself; a fault-free run never promotes"},
	wire.KNBStatusResp: {FaultOnly: "response half of the promotion status exchange; " +
		"see KNBStatusReq"},
	wire.KNBAbortIntent: {FaultOnly: "a promoted coordinator assembles an abort quorum " +
		"only after faults prevented the commit quorum from forming"},
	wire.KNBAbortIntentAck: {FaultOnly: "ack half of the abort-quorum round; " +
		"see KNBAbortIntent"},

	wire.KChildCommit: {FaultOnly: "nested-transaction traffic; the chaos workload is " +
		"flat top-level transactions — the nested paths are exercised by the core suite"},
	wire.KChildAbort: {FaultOnly: "nested-transaction traffic; see KChildCommit"},

	wire.KPaxosPrepare: {Pilots: []wire.Protocol{wire.Paxos}},
	wire.KPaxosVote: {FaultOnly: "an RM's explicit No vote short-circuits straight to " +
		"the leader; fault-free instances vote Yes through the 2a/2b path"},
	wire.KPaxos2a: {Pilots: []wire.Protocol{wire.Paxos}},
	wire.KPaxos2b: {Pilots: []wire.Protocol{wire.Paxos}},
	wire.KPaxos1a: {FaultOnly: "acceptor-takeover prepare; a ballot above zero is " +
		"started only when the leader crashed"},
	wire.KPaxos1b: {FaultOnly: "promise half of acceptor takeover; see KPaxos1a"},
}

// Coverage returns the injection-coverage row for k and whether the
// table has one.
func Coverage(k wire.Kind) (KindCoverage, bool) {
	c, ok := kindCoverage[k]
	return c, ok
}
