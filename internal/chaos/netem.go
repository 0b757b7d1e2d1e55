package chaos

import (
	"fmt"
	"time"

	"camelot/camelot"
	"camelot/internal/netem"
	"camelot/internal/tid"
	"camelot/internal/transport"
	"camelot/internal/wal"
)

// NetemResult is one netem-schedule replay's verdict: the workload
// and fault schedule that ran, the client's view, the emulator's
// decision tallies, and any broken invariants.
type NetemResult struct {
	Workload Schedule       `json:"workload"`
	Netem    netem.Schedule `json:"netem"`
	Outcomes []string       `json:"outcomes"`
	// Counts tallies the emulator's drop/dup/delay decisions; under
	// the simulation they are part of the deterministic replay.
	Counts     netem.Counts `json:"counts"`
	Violations []string     `json:"violations,omitempty"`
	Deadlock   string       `json:"deadlock,omitempty"`
}

// Failed reports whether the replay broke any invariant.
func (r *NetemResult) Failed() bool {
	return len(r.Violations) > 0 || r.Deadlock != ""
}

// RunNetem replays a netem/v1 fault schedule against the chaos
// workload inside the simulation. The emulator's per-link PRNGs drive
// every drop/dup/delay decision and its clock is the kernel's virtual
// clock, so the replay is fully deterministic: the same (workload,
// netem) pair always yields a byte-identical NetemResult. This is the
// cheap, replayable twin of running the same schedule against the
// real cluster with camelot-cluster -netem.
//
// Simulation limits: OpStop/OpCont freeze a process, which the
// cooperative kernel cannot express, so they are ignored here (the
// real driver applies them with signals). A WAL fault arms the same
// wal.FaultStore the real node runs, with one difference: here the
// targeted device write lands whole (DamageCrash) and the site
// crashes, while the real node loses the write (DamageLost) and its
// log fail-stops. Either way the force is never acknowledged and the
// site goes down; as in the real driver, a WAL fault the run never
// reaches is reported as a violation.
func RunNetem(ns netem.Schedule, w Schedule) (*NetemResult, error) {
	if err := ns.Validate(); err != nil {
		return nil, err
	}
	if w.Version == "" {
		w.Version = Version
	}
	if err := w.validate(); err != nil {
		return nil, err
	}
	if len(w.Faults) > 0 {
		return nil, fmt.Errorf("chaos: netem replay takes its faults from the netem schedule")
	}
	for _, f := range ns.Procs {
		if int(f.Site) > w.Sites {
			return nil, fmt.Errorf("chaos: proc fault site %d beyond %d sites", f.Site, w.Sites)
		}
	}
	e := &engine{sched: w, msgFaults: make(map[int]Fault)}
	return e.replayNetem(ns)
}

func (e *engine) replayNetem(ns netem.Schedule) (*NetemResult, error) {
	s := e.sched
	if err := e.build(); err != nil {
		return nil, err
	}

	// WAL faults: kill the site at its targeted device write.
	for _, f := range ns.WAL {
		idx := int(f.Site) - 1
		if idx < 0 || idx >= len(e.stores) {
			return nil, fmt.Errorf("chaos: wal fault site %d out of range", f.Site)
		}
		e.stores[idx].ArmAppend(f.FailAppend, wal.DamageCrash)
	}

	// Link rules and partition windows ride the transport's fault hook,
	// ruled by the emulator on the kernel's clock. netem models datagram
	// links, so the emulator never sees reliable (RPC) traffic.
	em := netem.NewEmulator(ns, func() time.Duration { return time.Duration(e.k.Now()) })
	e.c.Network().SetShaper(func(from, to tid.SiteID, _ any, reliable bool) transport.Shape {
		if reliable {
			return transport.Shape{}
		}
		d := em.Decide(uint32(from), uint32(to))
		return transport.Shape{Drop: d.Drop, Dup: d.Dup, Delay: d.Delay}
	})

	// Process faults become kernel-scheduled crash/recover events.
	for _, f := range ns.Procs {
		site := camelot.SiteID(f.Site)
		at := time.Duration(f.AtMs) * time.Millisecond
		switch f.Op {
		case netem.OpKill:
			e.k.After(at, func() {
				if !e.c.Node(site).Crashed() {
					e.c.Node(site).Crash()
				}
			})
		case netem.OpRestart:
			e.k.After(at, func() {
				if !e.c.Node(site).Crashed() {
					return
				}
				if err := e.c.Node(site).Recover(); err != nil {
					e.mu.Lock()
					e.recovery = append(e.recovery, fmt.Sprintf("recovery: site %d: %v", site, err))
					e.mu.Unlock()
				}
			})
		}
	}

	res := &NetemResult{Workload: s, Netem: ns}
	res.Outcomes, res.Violations, res.Deadlock = e.drive("netem-client")
	res.Counts = em.Counts()
	for _, f := range ns.WAL {
		if !e.stores[f.Site-1].Tripped() {
			appends, _ := e.stores[f.Site-1].Counts()
			res.Violations = append(res.Violations, fmt.Sprintf(
				"wal fault: site %d never reached device write %d (its log completed %d)", f.Site, f.FailAppend, appends))
		}
	}
	return res, nil
}
