// Package enumswitch exercises the enumswitch analyzer: switches and
// map literals over protocol enums must name every non-zero member or
// fail loudly in their default.
package enumswitch

import (
	"errors"
	"fmt"

	"enumswitch/wire"
)

func exhaustive(k wire.Kind) string {
	switch k {
	case wire.KPrepare:
		return "prepare"
	case wire.KVote:
		return "vote"
	case wire.KCommit:
		return "commit"
	}
	return ""
}

func zeroSentinelExempt(v wire.Vote) bool {
	// VoteInvalid is the zero sentinel: omitting it is not a finding.
	switch v {
	case wire.VoteYes:
		return true
	case wire.VoteNo:
		return false
	}
	return false
}

func missingNoDefault(k wire.Kind) string { //nolint (analyzer target)
	switch k { // want "switch over wire.Kind omits KCommit and has no default"
	case wire.KPrepare:
		return "prepare"
	case wire.KVote:
		return "vote"
	}
	return ""
}

func missingQuietDefault(k wire.Kind) string {
	switch k { // want "omits KVote, KCommit and its default absorbs them silently"
	case wire.KPrepare:
		return "prepare"
	default:
		return "other"
	}
}

func missingLoudDefault(k wire.Kind) string {
	switch k {
	case wire.KPrepare:
		return "prepare"
	default:
		panic(fmt.Sprintf("unhandled kind %d", k))
	}
}

func missingErrorDefault(k wire.Kind) (string, error) {
	switch k {
	case wire.KPrepare:
		return "prepare", nil
	default:
		return "", errors.New("unhandled kind")
	}
}

// rejectKind is the local helper missingHelperDefault's default
// reaches — one level of indirection the analyzer follows.
func rejectKind(k wire.Kind) {
	panic(k)
}

func missingHelperDefault(k wire.Kind) string {
	switch k {
	case wire.KPrepare:
		return "prepare"
	default:
		rejectKind(k)
		return ""
	}
}

// A fourth protocol would land in this quiet default and run as
// two-phase commit; today the member it swallows is Paxos.
func protocolQuietDefault(p wire.Protocol) string {
	switch p { // want "switch over wire.Protocol omits Paxos and its default absorbs them silently"
	case wire.NonBlocking:
		return "nb-prepare"
	default:
		return "prepare"
	}
}

func protocolLoudDefault(p wire.Protocol) string {
	switch p {
	case wire.TwoPhase:
		return "two-phase"
	default:
		panic(fmt.Sprintf("no label for protocol %d", p))
	}
}

var completeNames = map[wire.Kind]string{
	wire.KPrepare: "PREPARE",
	wire.KVote:    "VOTE",
	wire.KCommit:  "COMMIT",
}

var missingNames = map[wire.Kind]string{ // want "map literal keyed by wire.Kind omits KCommit"
	wire.KPrepare: "PREPARE",
	wire.KVote:    "VOTE",
}

func justifiedPartial(k wire.Kind) string {
	//lint:enumswitch only phase-one kinds reach this formatter
	switch k {
	case wire.KPrepare:
		return "prepare"
	default:
		return "other"
	}
}

func barePartial(k wire.Kind) string {
	/* want "needs a justification" */ //lint:enumswitch
	switch k {
	case wire.KPrepare:
		return "prepare"
	default:
		return "other"
	}
}
