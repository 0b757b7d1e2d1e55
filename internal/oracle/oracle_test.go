package oracle

import (
	"errors"
	"testing"

	"camelot/camelot"
	"camelot/internal/tid"
	"camelot/internal/wire"
)

// fakeView answers presence from a fixed key set and stays silent on
// outcomes.
type fakeView struct {
	keys map[string]bool
}

func (v *fakeView) HasKey(key string) (bool, error)              { return v.keys[key], nil }
func (v *fakeView) OutcomeOf(tid.FamilyID) (wire.Outcome, error) { return wire.OutcomeUnknown, nil }
func (v *fakeView) Probe() error                                 { return nil }
func viewsOf(m map[camelot.SiteID][]string) map[camelot.SiteID]SiteView {
	out := make(map[camelot.SiteID]SiteView, len(m))
	for site, keys := range m {
		fv := &fakeView{keys: make(map[string]bool)}
		for _, k := range keys {
			fv.keys[k] = true
		}
		out[site] = fv
	}
	return out
}

func rules(vs []Violation) map[string]int {
	out := make(map[string]int)
	for _, v := range vs {
		out[v.Rule]++
	}
	return out
}

func TestWriteSetAtomicityViolation(t *testing.T) {
	// A committed cross-shard txn whose write landed at site 1 but not
	// site 2: atomicity must fire (and swallow the redundant
	// client-view complaint).
	views := viewsOf(map[camelot.SiteID][]string{1: {"a"}, 2: {}, 3: {}})
	txns := []Txn{{
		Outcome: Committed,
		Writes:  []Write{{Key: "a", Site: 1}, {Key: "b", Site: 2}},
	}}
	got := rules(checkPresence(views, txns))
	if got["atomicity"] != 1 || got["client-view"] != 0 {
		t.Fatalf("violations = %v, want exactly one atomicity", got)
	}
}

// TestWriteSetReplicatedKey is the shape the chaos explorer's
// named-server workload feeds the oracle: one key written at every
// site. Present at two of three is a partial commit — atomicity fires
// once, whatever the client saw, and client-view stays quiet.
func TestWriteSetReplicatedKey(t *testing.T) {
	views := viewsOf(map[camelot.SiteID][]string{1: {"k0"}, 2: {"k0"}, 3: {}})
	txns := []Txn{{
		Outcome: Committed,
		Writes:  []Write{{Key: "k0", Site: 1}, {Key: "k0", Site: 2}, {Key: "k0", Site: 3}},
	}}
	got := rules(checkPresence(views, txns))
	if got["atomicity"] != 1 || got["client-view"] != 0 || len(got) != 1 {
		t.Fatalf("violations = %v, want exactly one atomicity", got)
	}
}

func TestWriteSetCleanOutcomes(t *testing.T) {
	views := viewsOf(map[camelot.SiteID][]string{1: {"a", "hot"}, 2: {"b"}})
	txns := []Txn{
		// Committed, fully landed, shared hot key present: clean.
		{Outcome: Committed, Writes: []Write{
			{Key: "a", Site: 1}, {Key: "b", Site: 2}, {Key: "hot", Site: 1, Shared: true}}},
		// Aborted, nothing landed, but the shared key is present from
		// the committed txn above: still clean — shared keys are not
		// held to all-or-nothing.
		{Outcome: Aborted, Writes: []Write{
			{Key: "x", Site: 1}, {Key: "hot", Site: 1, Shared: true}}},
		// Unknown outcome, nothing landed: clean (may have aborted).
		{Outcome: Unknown, Writes: []Write{{Key: "y", Site: 1}, {Key: "z", Site: 2}}},
	}
	if vs := checkPresence(views, txns); len(vs) != 0 {
		t.Fatalf("clean write sets reported violations: %v", vs)
	}
}

func TestWriteSetClientViewViolations(t *testing.T) {
	views := viewsOf(map[camelot.SiteID][]string{1: {"a"}, 2: {"b"}})

	// Client saw ABORT but the whole write set is present.
	aborted := []Txn{{Outcome: Aborted, Writes: []Write{{Key: "a", Site: 1}, {Key: "b", Site: 2}}}}
	if got := rules(checkPresence(views, aborted)); got["client-view"] != 1 {
		t.Fatalf("aborted-but-present: %v, want one client-view", got)
	}

	// Client saw COMMIT but nothing landed. exclusive 0/2 is
	// all-or-nothing-consistent, so only client-view fires.
	committed := []Txn{{Outcome: Committed, Writes: []Write{{Key: "x", Site: 1}, {Key: "y", Site: 2}}}}
	if got := rules(checkPresence(views, committed)); got["client-view"] != 1 || got["atomicity"] != 0 {
		t.Fatalf("committed-but-absent: %v, want one client-view", got)
	}

	// Client saw COMMIT and exclusives landed, but a shared key is
	// missing: committed ⇒ present applies to shared keys too.
	sharedGone := []Txn{{Outcome: Committed, Writes: []Write{
		{Key: "a", Site: 1}, {Key: "cold", Site: 2, Shared: true}}}}
	if got := rules(checkPresence(views, sharedGone)); got["client-view"] != 1 {
		t.Fatalf("committed-but-shared-missing: %v, want one client-view", got)
	}
}

func TestWriteSetUnreachableSiteIsViewViolation(t *testing.T) {
	views := map[camelot.SiteID]SiteView{1: &errView{}}
	txns := []Txn{{Outcome: Committed, Writes: []Write{{Key: "a", Site: 1}}}}
	if got := rules(checkPresence(views, txns)); got["view"] != 1 {
		t.Fatalf("unreachable site: %v, want one view violation", got)
	}
}

type errView struct{}

func (v *errView) HasKey(string) (bool, error) {
	return false, errors.New("connection refused")
}
func (v *errView) OutcomeOf(tid.FamilyID) (wire.Outcome, error) { return wire.OutcomeUnknown, nil }
func (v *errView) Probe() error                                 { return nil }
