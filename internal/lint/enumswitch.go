package lint

import "strings"

// EnumSwitch enforces exhaustiveness over the protocol enums
// (wire.Kind, wire.Vote, wire.Outcome, wire.NBState, wire.Protocol,
// wal.RecType).
// Every protocol added to the repository extends these constant
// sets, and PR 4–6 each found a real bug in a surface that silently
// failed to keep up (handler-less datagrams dropped invisibly, the
// presumed-abort decision-force bug, the Paxos undo-leak). The rule:
//
//   - a switch over a protocol enum must either name every non-zero
//     member in its cases or carry a default that fails loudly
//     (panic / os.Exit / returned error, directly or via one local
//     helper) — a quiet default absorbs the member a future protocol
//     adds;
//   - a map literal keyed by a protocol enum must name every
//     non-zero member — a map has no default, so a missing row is
//     zero-value silence at the lookup site.
//
// The zero sentinel (KInvalid, VoteInvalid, ...) is exempt: it is
// the codec's reject marker, not a live member. wire.Protocol's zero
// member is live — two-phase commit — and the exemption reads there
// as "two-phase is the default arm". Deliberately partial
// surfaces carry `//lint:enumswitch <why>` on or above the switch or
// literal.
var EnumSwitch = &Analyzer{
	Name: "enumswitch",
	Doc:  "switches and map literals over protocol enums must be exhaustive or fail loudly",
	Run:  runEnumSwitch,
}

func runEnumSwitch(pass *Pass) error {
	g := buildCallGraph(pass)
	for _, sw := range enumSwitches(pass) {
		missing := missingMembers(sw.enum, sw.covered)
		if len(missing) == 0 {
			continue
		}
		if sw.def != nil && pass.failsLoudly(sw.def.Body, g) {
			continue
		}
		if pass.allowed(sw.stmt.Pos(), "enumswitch") {
			continue
		}
		what := "has no default"
		if sw.def != nil {
			what = "its default absorbs them silently"
		}
		pass.Reportf(sw.stmt.Pos(),
			"switch over %s omits %s and %s; name every member, fail loudly in default, or justify with //lint:enumswitch",
			enumName(sw.enum), strings.Join(missing, ", "), what)
	}
	for _, ml := range enumMapLiterals(pass) {
		missing := missingMembers(ml.enum, ml.covered)
		if len(missing) == 0 {
			continue
		}
		if pass.allowed(ml.lit.Pos(), "enumswitch") {
			continue
		}
		pass.Reportf(ml.lit.Pos(),
			"map literal keyed by %s omits %s; lookups of the missing members read zero values silently (or justify with //lint:enumswitch)",
			enumName(ml.enum), strings.Join(missing, ", "))
	}
	return nil
}
