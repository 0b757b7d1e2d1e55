package ctl

import (
	"camelot/internal/tid"
	"camelot/internal/wire"
)

// View adapts a control connection to the oracle's SiteView: the
// recovery invariants are checked against real node processes with
// exactly the same code that checks the simulated cluster.
type View struct {
	// C is the control connection to the node.
	C *Client
}

// HasKey implements oracle.SiteView. Presence queries route by key
// through the node's shard map, so the caller must ask the key's home
// site.
func (v *View) HasKey(key string) (bool, error) {
	_, ok, err := v.C.PeekKey(key)
	return ok, err
}

// OutcomeOf implements oracle.SiteView.
func (v *View) OutcomeOf(f tid.FamilyID) (wire.Outcome, error) {
	return v.C.Outcome(f)
}

// Probe implements oracle.SiteView.
func (v *View) Probe() error {
	return v.C.Probe()
}
