// Package tracepair exercises the tracepair analyzer: a wal force in
// a function that never emits trace.LogForce is flagged, and
// PhaseBegin/PhaseEnd string literals must pair up package-wide.
package tracepair

import (
	"trace"
	"wal"
)

type mgr struct {
	log *wal.Log
	tr  *trace.Collector
}

func (m *mgr) forceCounted(lsn uint64) {
	_ = m.log.Force(lsn) // counted below: not a finding
	m.tr.LogForce()
}

func (m *mgr) forceUncounted(lsn uint64) {
	_ = m.log.Force(lsn) // want "never emits trace.LogForce"
}

func (m *mgr) forceJustified(lsn uint64) {
	//lint:tracepair idle-flush force; the caller emits the event
	_ = m.log.Force(lsn)
}

func (m *mgr) forceBare(lsn uint64) {
	_ = m.log.Force(lsn) /* want "needs a justification" */ //lint:tracepair
}

func (m *mgr) phases() {
	m.tr.PhaseBegin("paired")
	m.tr.PhaseEnd("paired")
	m.tr.PhaseBegin("leaky") // want "begun but never ended"
	m.tr.PhaseEnd("dead")    // want "ended but never begun"
}

func (m *mgr) dynamic(name string) {
	m.tr.PhaseBegin(name) // dynamic phase names are out of reach
	m.tr.PhaseEnd(name)
}

func (m *mgr) phaseJustified() {
	//lint:tracepair the end is emitted by the recovery path
	m.tr.PhaseBegin("cross-package")
}
