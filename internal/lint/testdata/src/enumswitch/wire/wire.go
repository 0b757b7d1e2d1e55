// Package wire is a stand-in for camelot/internal/wire: the protocol
// enums whose switch and map surfaces the enumswitch analyzer guards.
package wire

// Kind discriminates datagram types.
type Kind uint8

// Datagram kinds. KInvalid is the zero sentinel and exempt from
// exhaustiveness.
const (
	KInvalid Kind = iota
	KPrepare
	KVote
	KCommit
)

// Vote is a phase-one answer; VoteInvalid is the zero sentinel.
type Vote uint8

const (
	VoteInvalid Vote = iota
	VoteYes
	VoteNo
)

// Protocol is the commit protocol. Its zero member is live (two-phase
// commit, the default), and still exempt: an arm for "everything else"
// is how code spells the default protocol.
type Protocol uint8

const (
	TwoPhase Protocol = iota
	NonBlocking
	Paxos
)
