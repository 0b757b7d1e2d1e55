package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"sync"
	"syscall"
	"time"

	"camelot/camelot"
	"camelot/internal/netem"
	"camelot/internal/wire"
	"camelot/internal/workload"
)

// defaultNetemDuration is the fault-phase length when the schedule
// does not set one.
const defaultNetemDuration = 5 * time.Second

// experiment is everything that tells one run from another, as data
// for the one lifecycle. This file is the only place that knows there
// are two kinds; run and the driver's phases read the fields and ask
// no more.
type experiment struct {
	// progress is what the run's length and its faults are measured in:
	// transactions begun, or milliseconds on the run clock. The fault
	// phase ends once it reaches end.
	progress func(i int, elapsed time.Duration) int
	end      int
	// faults is the fault plan, in order, written in a schedule's own
	// vocabulary — with AtMs read as a mark in progress units. An entry
	// applies once progress reaches its mark and every entry before it
	// has applied.
	faults []netem.ProcFault
	// planner plans transaction i of the workload.
	planner func(d *driver, i int) workload.Plan
	// pace is the pause after each transaction.
	pace time.Duration
	// killed is the first site the plan SIGKILLs; zero if none.
	killed camelot.SiteID
	clock  runClock

	// What only a schedule brings. walFail maps a site to the device
	// write its disk dies at: the site boots on the failing store and
	// the heal confirms the death. proxy puts the emulator on every link.
	schedule *netem.Schedule
	walFail  map[camelot.SiteID]int
	proxy    *netem.Proxy
}

// newExperiment turns the command line into the run's data: the
// schedule -netem names, else the built-in kill/restart plan.
func newExperiment(cfg config, sites []camelot.SiteID) (*experiment, error) {
	if cfg.Netem == "" {
		return killRestart(cfg, sites[len(sites)-1])
	}
	if cfg.KillMidCommit {
		return nil, errors.New("-kill-mid-commit belongs to the built-in fault plan; a -netem schedule brings its own faults")
	}
	return storm(cfg)
}

// killRestart is the built-in experiment: cfg.Txns transactions of the
// seeded mix back to back, the victim SIGKILLed a third of the way in
// and restarted at two thirds. Index-based, so a seed names one
// deterministic schedule.
func killRestart(cfg config, victim camelot.SiteID) (*experiment, error) {
	if cfg.Txns < 1 {
		return nil, errors.New("need at least 1 transaction")
	}
	killAt, restartAt := cfg.Txns/3, 2*cfg.Txns/3
	rng := rand.New(rand.NewSource(cfg.Seed))
	x := &experiment{
		progress: func(i int, _ time.Duration) int { return i },
		end:      cfg.Txns,
		faults: []netem.ProcFault{
			{Site: uint32(victim), AtMs: killAt, Op: netem.OpKill},
			{Site: uint32(victim), AtMs: restartAt, Op: netem.OpRestart},
		},
		planner: func(d *driver, i int) workload.Plan {
			return workload.Mix(rng, i, d.smap, d.txns, protocolFor(cfg.Protocol, i))
		},
		killed: victim,
	}
	if !cfg.KillMidCommit {
		return x, nil
	}
	// The kill moves out of the plan into transaction killAt itself: the
	// victim coordinates a transaction with a key on every placed site
	// and is SIGKILLed with its commit in flight. The survivors must
	// resolve their shards of it — and release its locks — before the
	// plan's restart lets the coordinator back.
	x.faults = x.faults[1:]
	mix := x.planner
	x.planner = func(d *driver, i int) workload.Plan {
		if i != killAt {
			return mix(d, i)
		}
		p := workload.Across(fmt.Sprintf("t%04d", i), d.smap, d.smap.Sites(), victim, protocolFor(cfg.Protocol, i))
		var witnesses []*proc
		for _, w := range p.Tx.Writes {
			if w.Site != victim {
				witnesses = append(witnesses, d.procs[w.Site])
			}
		}
		p.CommitVia = func(commit func() error) error {
			err := killMidCommit(d.procs[victim], witnesses, commit)
			time.Sleep(20 * cfg.Retry)
			violations, notes := survivorsResolved(d.procs, p.Tx, p.Protocol)
			d.rep.Violations = append(d.rep.Violations, violations...)
			d.rep.Notes = append(d.rep.Notes, notes...)
			return err
		}
		return p
	}
	return x, nil
}

// storm is the experiment a netem/v1 schedule describes: its process
// faults on the run clock, its WAL faults at boot, its link rules and
// partitions in an emulator proxy on every link, for its duration_ms.
// The workload writes at every site it can reach, paced so that the
// schedule's clock, not the CPU, sets how many transactions run.
func storm(cfg config) (*experiment, error) {
	b, err := os.ReadFile(cfg.Netem)
	if err != nil {
		return nil, err
	}
	sched, err := netem.DecodeSchedule(b)
	if err != nil {
		return nil, err
	}
	x := &experiment{
		progress: func(_ int, elapsed time.Duration) int { return int(elapsed / time.Millisecond) },
		end:      sched.DurationMs,
		planner:  (*driver).planStorm,
		pace:     20 * time.Millisecond,
		schedule: &sched,
		walFail:  make(map[camelot.SiteID]int),
	}
	if x.end <= 0 {
		x.end = int(defaultNetemDuration / time.Millisecond)
	}
	for _, f := range sched.WAL {
		if int(f.Site) > cfg.Nodes {
			return nil, fmt.Errorf("schedule wal fault site %d beyond %d nodes", f.Site, cfg.Nodes)
		}
		x.walFail[camelot.SiteID(f.Site)] = f.FailAppend
	}
	procs := append([]netem.ProcFault(nil), sched.Procs...)
	sort.SliceStable(procs, func(i, j int) bool { return procs[i].AtMs < procs[j].AtMs })
	for _, f := range procs {
		if int(f.Site) > cfg.Nodes {
			return nil, fmt.Errorf("schedule proc fault site %d beyond %d nodes", f.Site, cfg.Nodes)
		}
		if f.AtMs > x.end {
			return nil, fmt.Errorf("schedule proc fault at %d ms is after the fault phase ends (%d ms)", f.AtMs, x.end)
		}
		x.faults = append(x.faults, f)
		if f.Op == netem.OpKill && x.killed == 0 {
			x.killed = camelot.SiteID(f.Site)
		}
	}
	x.proxy = netem.NewProxy(netem.NewEmulator(sched, x.clock.Elapsed))
	return x, nil
}

// routes returns each site's fault-phase peer map. Without an emulator
// it is the real addresses; with one, every ordered site pair gets a
// proxy pipe and each site's map points at its outbound pipes.
func (x *experiment) routes(sites []camelot.SiteID, real map[camelot.SiteID]string) (map[camelot.SiteID]map[camelot.SiteID]string, error) {
	out := make(map[camelot.SiteID]map[camelot.SiteID]string, len(sites))
	for _, a := range sites {
		if x.proxy == nil {
			out[a] = real
			continue
		}
		out[a] = make(map[camelot.SiteID]string, len(sites)-1)
		for _, b := range sites {
			if a == b {
				continue
			}
			addr, err := x.proxy.Open(uint32(a), uint32(b), real[b])
			if err != nil {
				return nil, err
			}
			out[a][b] = addr
		}
	}
	return out, nil
}

// emulated returns the emulator's decision tallies, nil without one.
func (x *experiment) emulated() *netem.Counts {
	if x.proxy == nil {
		return nil
	}
	c := x.proxy.Counts()
	return &c
}

// close releases the proxies' sockets.
func (x *experiment) close() {
	if x.proxy != nil {
		x.proxy.Close()
	}
}

// runClock is the run-relative wall clock the emulator and the fault
// plan share; it reads zero until the workload starts.
type runClock struct {
	mu sync.Mutex
	t0 time.Time
}

func (c *runClock) Start() {
	c.mu.Lock()
	c.t0 = time.Now()
	c.mu.Unlock()
}

func (c *runClock) Elapsed() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.t0.IsZero() {
		return 0
	}
	return time.Since(c.t0)
}

// applyProcFault applies one process-level fault; kill, stop, cont and
// restart mean the same thing whichever plan scheduled them.
func (d *driver) applyProcFault(f netem.ProcFault) {
	id := camelot.SiteID(f.Site)
	p := d.procs[id]
	switch f.Op {
	case netem.OpKill:
		p.kill()
	case netem.OpStop:
		if !p.down {
			p.cmd.Process.Signal(syscall.SIGSTOP) //nolint:errcheck // the freeze is the experiment
			p.frozen = true
		}
	case netem.OpCont:
		if p.frozen {
			p.cmd.Process.Signal(syscall.SIGCONT) //nolint:errcheck // symmetric with the stop
			p.frozen = false
		}
	case netem.OpRestart:
		if !p.down {
			return
		}
		if err := p.restart(d.nodeFlags(id, true)); err != nil {
			d.rep.Violations = append(d.rep.Violations, fmt.Sprintf("restart: site %d: %v", id, err))
			return
		}
		// Same addresses as before, so its peers (and any proxies) still
		// point at it; the fresh process just needs its own map back.
		if err := p.client.SetPeers(d.peers[id]); err != nil {
			d.rep.Violations = append(d.rep.Violations, fmt.Sprintf("restart: site %d: peers: %v", id, err))
		}
	}
}

// walFaultReport is one scheduled WAL fault's outcome: how many device
// writes the site's log completed and the device error that stopped it
// (empty if the programmed write was never reached).
type walFaultReport struct {
	Site         uint32 `json:"site"`
	FailAppend   int    `json:"fail_append"`
	DeviceWrites int    `json:"device_writes"`
	Err          string `json:"err,omitempty"`
}

// checkWALFault asks a site whose schedule programmed a disk death
// whether it happened. A fault placed beyond the device writes the
// storm produces tests nothing, so one that did not fire — or cannot
// be confirmed — is a violation.
func (d *driver) checkWALFault(id camelot.SiteID, failAppend int) {
	f := walFaultReport{Site: uint32(id), FailAppend: failAppend}
	problem := ""
	if c := d.client(id); c == nil {
		problem = "cannot confirm the disk death: site unreachable"
	} else if st, err := c.TransportStats(); err != nil {
		problem = fmt.Sprintf("cannot confirm the disk death: %v", err)
	} else {
		f.DeviceWrites, f.Err = st.WALDeviceWrites, st.WALErr
		if st.WALErr == "" {
			problem = fmt.Sprintf("never reached device write %d (its log completed %d)", failAppend, st.WALDeviceWrites)
		}
	}
	d.rep.WALFaults = append(d.rep.WALFaults, f)
	if problem != "" {
		d.rep.Violations = append(d.rep.Violations, fmt.Sprintf("wal fault: site %d: %s", id, problem))
	}
}

// planStorm plans storm-phase transaction i: one key at every site
// the driver can currently reach, the coordinator rotating over them.
func (d *driver) planStorm(i int) workload.Plan {
	var avail []camelot.SiteID
	for _, id := range d.sites {
		if d.client(id) != nil {
			avail = append(avail, id)
		}
	}
	var coord camelot.SiteID // stays 0, with an empty write set, when nothing is reachable
	if len(avail) > 0 {
		coord = avail[i%len(avail)]
	}
	return workload.Across(fmt.Sprintf("t%04d", i), d.smap, avail, coord, protocolFor(d.cfg.Protocol, i))
}

// protocolFor returns transaction i's commit protocol: the pinned one,
// else its turn in the cycle through every protocol, so an unpinned
// run exercises commitment under all of them.
func protocolFor(pinned string, i int) wire.Protocol {
	if pinned == "" {
		cycle := wire.Protocols()
		return cycle[i%len(cycle)]
	}
	p, _ := wire.ParseProtocol(pinned) // run refused a name that does not parse
	return p
}
