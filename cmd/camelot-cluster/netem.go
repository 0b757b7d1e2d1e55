package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"syscall"
	"time"

	"camelot/camelot"
	"camelot/internal/ctl"
	"camelot/internal/netem"
	"camelot/internal/oracle"
	"camelot/internal/shardmap"
	"camelot/internal/wire"
)

// NetemReportSchema identifies the netem-mode -json output format.
const NetemReportSchema = "camelot-cluster-netem/v1"

// defaultNetemDuration is the fault-phase length when the schedule
// does not set one.
const defaultNetemDuration = 5 * time.Second

// netemConfig drives one netem-schedule run against a real cluster.
type netemConfig struct {
	ScheduleFile string
	Nodes        int
	Seed         int64
	// Protocol pins every commit; empty rotates 2pc/nb/paxos per txn.
	Protocol  string
	NodeBin   string
	Retry     time.Duration
	RetryCap  time.Duration
	OpTimeout time.Duration
	// MaxRetry, when positive, is the pinned bound on the cluster's
	// total retransmits+inquiries for the schedule; exceeding it is
	// reported as a violation (the backoff budget check).
	MaxRetry int
	JSON     bool
}

// netemReport is the run's outcome summary: workload outcomes, the
// transport and retry ledgers, the emulator's decision tallies, and
// the oracle's verdict.
type netemReport struct {
	Schema      string         `json:"schema"`
	Nodes       int            `json:"nodes"`
	Seed        int64          `json:"seed"`
	Protocol    string         `json:"protocol,omitempty"`
	Schedule    netem.Schedule `json:"schedule"`
	Txns        int            `json:"txns"`
	Committed   int            `json:"committed"`
	Aborted     int            `json:"aborted"`
	Unknown     int            `json:"unknown"`
	Skipped     int            `json:"skipped"`
	Sent        int            `json:"datagrams_sent"`
	Recv        int            `json:"datagrams_received"`
	Dropped     int            `json:"datagrams_dropped"`
	Retransmits int            `json:"retransmits"`
	Inquiries   int            `json:"inquiries"`
	// Unavailable counts driver calls that hit their deadline — the
	// typed ErrUnavailable verdicts, each one a hang that didn't happen.
	Unavailable int          `json:"unavailable_calls"`
	Emulator    netem.Counts `json:"emulator"`
	// WALFaults is what each scheduled disk death did, asked of the
	// site just before the heal; one that never fired is a violation.
	WALFaults  []walFaultReport `json:"wal_faults,omitempty"`
	Violations []string         `json:"violations"`
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

func (r *netemReport) print(w *os.File) {
	fmt.Fprintf(w, "camelot-cluster netem: %d nodes, seed %d, %d txns driven\n", r.Nodes, r.Seed, r.Txns)
	fmt.Fprintf(w, "  outcomes: %d committed, %d aborted, %d unknown, %d skipped; %d calls returned unavailable\n",
		r.Committed, r.Aborted, r.Unknown, r.Skipped, r.Unavailable)
	fmt.Fprintf(w, "  emulator: %d seen, %d dropped (%d cut), %d dupped, %d delayed\n",
		r.Emulator.Seen, r.Emulator.Dropped, r.Emulator.Cut, r.Emulator.Dupped, r.Emulator.Delayed)
	fmt.Fprintf(w, "  transport: %d sent, %d received, %d dropped; %d retransmits, %d inquiries\n",
		r.Sent, r.Recv, r.Dropped, r.Retransmits, r.Inquiries)
	for _, f := range r.WALFaults {
		fmt.Fprintf(w, "  wal fault: site %d after %d device writes: %s\n", f.Site, f.DeviceWrites, f.Err)
	}
	if len(r.Violations) == 0 {
		fmt.Fprintf(w, "  oracle: all invariants hold\n")
		return
	}
	fmt.Fprintf(w, "  oracle: %d violations\n", len(r.Violations))
	for _, v := range r.Violations {
		fmt.Fprintf(w, "    %s\n", v)
	}
}

// runClock is the run-relative wall clock the emulator and fault
// scheduler share; it reads zero until the workload starts.
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

// netemDriver is one run's state. Everything — workload, fault
// application, heal — runs on the driver goroutine; only the proxy's
// forwarding loops are concurrent, and they touch nothing here.
type netemDriver struct {
	cfg     netemConfig
	sched   netem.Schedule
	bin     string
	clock   *runClock
	proxy   *netem.Proxy
	sites   []camelot.SiteID
	smap    *shardmap.Map
	layout  []string // layout's -shards/-sites flags: every incarnation of every node gets them
	procs   map[camelot.SiteID]*proc
	stopped map[camelot.SiteID]bool
	rep     *netemReport
}

// runNetem executes one netem/v1 schedule against a freshly spawned
// loopback cluster: UDP interposed through the emulator's proxies,
// process faults applied on the schedule's clock, then a heal and the
// full recovery-oracle check plus a durability bounce.
func runNetem(cfg netemConfig) (*netemReport, error) {
	if cfg.Nodes < 2 {
		return nil, errors.New("need at least 2 nodes")
	}
	if _, err := wire.ParseProtocol(cfg.Protocol); err != nil {
		return nil, err // before any node is spawned
	}
	b, err := os.ReadFile(cfg.ScheduleFile)
	if err != nil {
		return nil, err
	}
	sched, err := netem.DecodeSchedule(b)
	if err != nil {
		return nil, err
	}
	for _, f := range sched.Procs {
		if int(f.Site) > cfg.Nodes {
			return nil, fmt.Errorf("schedule proc fault site %d beyond %d nodes", f.Site, cfg.Nodes)
		}
	}
	for _, f := range sched.WAL {
		if int(f.Site) > cfg.Nodes {
			return nil, fmt.Errorf("schedule wal fault site %d beyond %d nodes", f.Site, cfg.Nodes)
		}
	}

	dir, err := os.MkdirTemp("", "camelot-netem-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	bin, err := nodeBinary(cfg.NodeBin, dir)
	if err != nil {
		return nil, err
	}
	sites, smap, layoutFlags, err := layout(cfg.Nodes, cfg.Nodes)
	if err != nil {
		return nil, err
	}

	d := &netemDriver{
		cfg:     cfg,
		sched:   sched,
		bin:     bin,
		clock:   &runClock{},
		sites:   sites,
		smap:    smap,
		layout:  layoutFlags,
		procs:   make(map[camelot.SiteID]*proc),
		stopped: make(map[camelot.SiteID]bool),
		rep: &netemReport{Schema: NetemReportSchema, Nodes: cfg.Nodes, Seed: cfg.Seed,
			Protocol: cfg.Protocol, Schedule: sched, Violations: []string{}},
	}
	defer func() {
		for _, p := range d.procs {
			p.stop()
		}
		if d.proxy != nil {
			d.proxy.Close()
		}
	}()

	// Boot every node. Sites with a WAL fault get the failing store.
	walFail := make(map[camelot.SiteID]int)
	for _, f := range sched.WAL {
		walFail[camelot.SiteID(f.Site)] = f.FailAppend
	}
	for _, id := range d.sites {
		p, err := spawn(bin, id, filepath.Join(dir, fmt.Sprintf("site%d.wal", id)),
			"127.0.0.1:0", "127.0.0.1:0", cfg.Retry, d.nodeFlags(id, walFail)...)
		if err != nil {
			return nil, err
		}
		p.client.SetTimeout(cfg.OpTimeout)
		d.procs[id] = p
	}
	if err := checkShardMaps(d.sites, d.procs, smap); err != nil {
		return nil, err
	}

	// Interpose the emulator: one proxy pipe per ordered site pair,
	// and each node's peer map points at its outbound pipes.
	d.proxy = netem.NewProxy(netem.NewEmulator(sched, d.clock.Elapsed))
	proxied := make(map[camelot.SiteID]map[camelot.SiteID]string, cfg.Nodes)
	for _, a := range d.sites {
		proxied[a] = make(map[camelot.SiteID]string, cfg.Nodes-1)
		for _, bb := range d.sites {
			if a == bb {
				continue
			}
			addr, err := d.proxy.Open(uint32(a), uint32(bb), d.procs[bb].udpAddr)
			if err != nil {
				return nil, err
			}
			proxied[a][bb] = addr
		}
	}
	for _, id := range d.sites {
		if err := d.procs[id].client.SetPeers(proxied[id]); err != nil {
			return nil, fmt.Errorf("site %d: peers: %w", id, err)
		}
	}

	// Fault phase: drive transactions while the schedule's clock runs,
	// applying each process fault as it comes due between operations.
	duration := time.Duration(sched.DurationMs) * time.Millisecond
	if duration <= 0 {
		duration = defaultNetemDuration
	}
	pending := append([]netem.ProcFault(nil), sched.Procs...)
	sort.SliceStable(pending, func(i, j int) bool { return pending[i].AtMs < pending[j].AtMs })

	var txns []oracle.Txn
	exec := &executor{client: d.client}
	d.clock.Start()
	for i := 0; d.clock.Elapsed() < duration; i++ {
		for len(pending) > 0 && time.Duration(pending[0].AtMs)*time.Millisecond <= d.clock.Elapsed() {
			d.applyProcFault(pending[0], proxied)
			pending = pending[1:]
		}
		txns = append(txns, exec.run(d.planStorm(i)))
		time.Sleep(20 * time.Millisecond)
	}
	d.rep.Unavailable = exec.unavailable
	// Faults the workload clock passed while a slow call was in
	// flight still apply before the heal (a kill at the very end of
	// the window must still have happened for the heal to undo it).
	for len(pending) > 0 && time.Duration(pending[0].AtMs)*time.Millisecond <= duration {
		d.applyProcFault(pending[0], proxied)
		pending = pending[1:]
	}
	d.rep.Txns = len(txns)

	// Heal: continue frozen processes, restart dead ones with intact
	// disks, and re-point every peer map at the real addresses — the
	// proxies (and whatever open-ended windows the schedule still has)
	// drop out of the path entirely.
	for _, id := range d.sites {
		if d.stopped[id] {
			d.procs[id].cmd.Process.Signal(syscall.SIGCONT) //nolint:errcheck // heal is best effort before verify
			delete(d.stopped, id)
		}
	}
	for _, id := range d.sites {
		p := d.procs[id]
		if !p.down && walFail[id] >= 0 && containsFlag(p.extra, "-wal-fail-append") {
			// A site whose "disk" died fail-stopped its log; confirm
			// the death, then give it a healthy device for the heal by
			// bouncing it without the fault flag.
			d.checkWALFault(id, walFail[id])
			p.kill()
		}
		if p.down {
			if err := d.respawn(p, d.nodeFlags(id, nil)); err != nil {
				return nil, fmt.Errorf("heal: restarting site %d: %w", id, err)
			}
		}
	}
	real := make(map[camelot.SiteID]string, len(d.sites))
	for id, p := range d.procs {
		real[id] = p.udpAddr
	}
	for _, id := range d.sites {
		c := d.client(id)
		if c == nil {
			return nil, fmt.Errorf("heal: site %d unreachable", id)
		}
		if err := c.SetPeers(real); err != nil {
			return nil, fmt.Errorf("heal: site %d: peers: %w", id, err)
		}
	}

	// Quiesce: backed-off retries and inquiries resolve everything
	// in-doubt now that datagrams flow clean.
	time.Sleep(40 * cfg.Retry)

	views := make(map[camelot.SiteID]oracle.SiteView, len(d.sites))
	for _, id := range d.sites {
		views[id] = &ctl.View{C: d.procs[id].client}
	}
	for _, v := range oracle.CheckViews(d.sites, views, txns) {
		d.rep.Violations = append(d.rep.Violations, v.String())
	}

	// The ledgers, before the bounce resets per-process counters.
	for _, id := range d.sites {
		if st, err := d.procs[id].client.TransportStats(); err == nil {
			d.rep.Sent += st.Sent
			d.rep.Recv += st.Recv
			d.rep.Dropped += st.Dropped
			d.rep.Retransmits += st.Retransmits
			d.rep.Inquiries += st.Inquiries
		}
	}
	d.rep.Emulator = d.proxy.Counts()
	if cfg.MaxRetry > 0 && d.rep.Retransmits+d.rep.Inquiries > cfg.MaxRetry {
		d.rep.Violations = append(d.rep.Violations, fmt.Sprintf(
			"retry budget: %d retransmits + %d inquiries exceed the pinned bound %d",
			d.rep.Retransmits, d.rep.Inquiries, cfg.MaxRetry))
	}

	// Durability bounce: everything must survive a full-cluster crash.
	time.Sleep(250 * time.Millisecond)
	for _, id := range d.sites {
		d.procs[id].kill()
	}
	for _, id := range d.sites {
		if err := d.respawn(d.procs[id], d.nodeFlags(id, nil)); err != nil {
			return nil, fmt.Errorf("bounce: restarting site %d: %w", id, err)
		}
	}
	for _, id := range d.sites {
		if err := d.procs[id].client.SetPeers(real); err != nil {
			return nil, fmt.Errorf("bounce: site %d: peers: %w", id, err)
		}
	}
	time.Sleep(20 * cfg.Retry)
	for _, id := range d.sites {
		views[id] = &ctl.View{C: d.procs[id].client}
	}
	for _, v := range oracle.CheckViews(d.sites, views, txns) {
		d.rep.Violations = append(d.rep.Violations, "durability: "+v.String())
	}

	for _, tx := range txns {
		switch tx.Outcome {
		case oracle.Committed:
			d.rep.Committed++
		case oracle.Aborted:
			d.rep.Aborted++
		case oracle.Skipped:
			d.rep.Skipped++
		default:
			d.rep.Unknown++
		}
	}
	return d.rep, nil
}

// checkWALFault asks a site whose schedule programmed a disk death
// whether it happened. A fault placed beyond the device writes the
// storm produces tests nothing, so one that did not fire — or cannot
// be confirmed — is a violation.
func (d *netemDriver) checkWALFault(id camelot.SiteID, failAppend int) {
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

// nodeFlags assembles a site's extra daemon flags: the deployment's
// layout, the backoff cap, plus the failing WAL store when the schedule
// targets the site (nil walFail — a heal or bounce respawn — always
// gets a healthy disk).
func (d *netemDriver) nodeFlags(id camelot.SiteID, walFail map[camelot.SiteID]int) []string {
	out := append([]string(nil), d.layout...)
	if d.cfg.RetryCap > 0 {
		out = append(out, "-retry-cap", d.cfg.RetryCap.String())
	}
	if n, hit := walFail[id]; hit {
		out = append(out, "-wal-fail-append", fmt.Sprint(n))
	}
	return out
}

func containsFlag(flags []string, name string) bool {
	for _, f := range flags {
		if f == name {
			return true
		}
	}
	return false
}

// respawn restarts a dead node on its previous addresses with the
// given flags (unlike proc.restart, which replays the old ones).
func (d *netemDriver) respawn(p *proc, extra []string) error {
	np, err := spawn(d.bin, p.site, p.wal, p.udpAddr, p.ctlAddr, d.cfg.Retry, extra...)
	if err != nil {
		return err
	}
	np.client.SetTimeout(d.cfg.OpTimeout)
	*p = *np
	return nil
}

// applyProcFault applies one due process-level fault.
func (d *netemDriver) applyProcFault(f netem.ProcFault, proxied map[camelot.SiteID]map[camelot.SiteID]string) {
	id := camelot.SiteID(f.Site)
	p := d.procs[id]
	switch f.Op {
	case netem.OpKill:
		p.kill()
	case netem.OpStop:
		if !p.down {
			p.cmd.Process.Signal(syscall.SIGSTOP) //nolint:errcheck // the freeze is the experiment
			d.stopped[id] = true
		}
	case netem.OpCont:
		if !p.down && d.stopped[id] {
			p.cmd.Process.Signal(syscall.SIGCONT) //nolint:errcheck // symmetric with the stop
			delete(d.stopped, id)
		}
	case netem.OpRestart:
		if !p.down {
			return
		}
		if err := d.respawn(p, p.extra); err != nil {
			d.rep.Violations = append(d.rep.Violations, fmt.Sprintf("restart: site %d: %v", id, err))
			return
		}
		// Same addresses as before, so the proxies still point at it;
		// the fresh process just needs its outbound pipe map back.
		if err := p.client.SetPeers(proxied[id]); err != nil {
			d.rep.Violations = append(d.rep.Violations, fmt.Sprintf("restart: site %d: peers: %v", id, err))
		}
	}
}

// client returns a usable control client for the site: reconnecting a
// poisoned one, nil if the site is down, frozen, or unreachable.
func (d *netemDriver) client(id camelot.SiteID) *ctl.Client {
	p := d.procs[id]
	if p.down || d.stopped[id] {
		return nil
	}
	if p.client.Broken() {
		if err := p.client.Reconnect(); err != nil {
			return nil
		}
	}
	return p.client
}

// planStorm plans storm-phase transaction i: one key at every site
// the driver can currently reach, the coordinator rotating over them.
func (d *netemDriver) planStorm(i int) plan {
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
	return planAcross(i, d.smap, avail, coord, protocolFor(d.cfg.Protocol, i))
}
