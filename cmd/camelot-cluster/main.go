// Command camelot-cluster deploys and torments a real multi-process
// Camelot cluster. Every run is one lifecycle: boot (spawn a
// camelot-node per site on loopback, all under one shard map — -shards
// shards round-robin over the sites, one per site by default — and
// check over ctl that every node built it), a fault phase (workload
// transactions through the control ports — two-phase, non-blocking and
// Paxos commits, write sets straddling shards on distinct sites, hot
// keys, read-only participants — with each entry of the run's fault
// plan applied as it comes due between them), a heal (continue what is
// frozen, replace a dead disk, restart what is down), the recovery
// oracle's invariants (atomicity, client view, outcome agreement,
// liveness) over the control plane plus the transport and retry
// ledgers, and a bounce — SIGKILL and restart every node, then the
// oracle again: updates that survive that pass were genuinely on disk.
//
// This is the chaos explorer's discipline applied to real processes:
// same invariants, same oracle, but real UDP loss-and-reorder, real
// fsync, real SIGKILL. Every control call carries a deadline
// (-op-timeout): a wedged node costs bounded time, never a hang.
//
// The built-in fault plan SIGKILLs the highest site a third of the way
// through -txns transactions of the seeded mix and restarts it against
// its surviving write-ahead log at two thirds; with -kill-mid-commit
// the victim instead coordinates an all-site transaction and dies with
// its own commit in flight.
//
//	camelot-cluster -nodes 3 -txns 200 -seed 1
//
// With -netem FILE the plan is a netem/v1 schedule (internal/netem)
// and the run lasts its duration_ms instead of -txns: every UDP link
// goes through an emulator proxy applying the schedule's drop,
// duplication, reordering, delay-jitter and partition windows, its
// process faults (kill, stop, cont, restart) land on the same clock,
// and its WAL faults boot the named sites on a disk that dies.
//
//	camelot-cluster -nodes 3 -netem testdata/netem-smoke.json -max-retry 4000
//
// Exit status is nonzero if any invariant was violated.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"

	"camelot/camelot"
	"camelot/internal/ctl"
	"camelot/internal/netem"
	"camelot/internal/oracle"
	"camelot/internal/shardmap"
	"camelot/internal/wire"
	"camelot/internal/workload"
)

// ReportSchema identifies the -json output format.
const ReportSchema = "camelot-cluster/v2"

// defaultOpTimeout bounds every control call of a run that names no
// deadline of its own.
const defaultOpTimeout = 3 * time.Second

func main() {
	var cfg config
	flag.IntVar(&cfg.Nodes, "nodes", 3, "number of sites")
	flag.IntVar(&cfg.Txns, "txns", 200, "workload transactions (a -netem schedule runs for its own duration_ms instead)")
	flag.Int64Var(&cfg.Seed, "seed", 1, "workload seed (the -netem workload draws nothing: the schedule's own seed drives the emulator)")
	flag.StringVar(&cfg.NodeBin, "node", "", "camelot-node binary (built with 'go build' when empty)")
	flag.StringVar(&cfg.Protocol, "protocol", "", "commit protocol for every transaction: 2pc, nb, or paxos (empty: cycle through all three per txn)")
	flag.IntVar(&cfg.Shards, "shards", 0, "shard the keyspace into N shards round-robin over the sites (0: one shard per site)")
	flag.BoolVar(&cfg.KillMidCommit, "kill-mid-commit", false, "make the killed site the coordinator and SIGKILL it during its own commit (not with -netem)")
	flag.StringVar(&cfg.Netem, "netem", "", "netem/v1 schedule file: the fault plan, the run's length and the emulated links come from it instead of the built-in kill/restart")
	flag.DurationVar(&cfg.Retry, "retry", 50*time.Millisecond, "node retry interval")
	flag.DurationVar(&cfg.RetryCap, "retry-cap", 0, "node retry-backoff cap (0: the node default)")
	flag.DurationVar(&cfg.OpTimeout, "op-timeout", defaultOpTimeout, "per-control-call deadline (0: the default)")
	flag.IntVar(&cfg.MaxRetry, "max-retry", 0, "pinned bound on total retransmits+inquiries; exceeding it is a violation (0: unbounded)")
	asJSON := flag.Bool("json", false, "emit a JSON report on stdout")
	flag.Parse()

	rep, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "camelot-cluster:", err)
		os.Exit(1)
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		enc.Encode(rep) //nolint:errcheck // stdout
	} else {
		rep.print(os.Stderr)
	}
	if len(rep.Violations) > 0 {
		os.Exit(1)
	}
}

// config is one run's command line, field for flag.
type config struct {
	Nodes int
	// Txns is the length of a run under the built-in fault plan; a
	// schedule sets its own.
	Txns int
	Seed int64
	// Protocol pins every commit to one protocol ("2pc", "nb",
	// "paxos"); empty cycles through all three per transaction.
	Protocol string
	NodeBin  string
	// Shards is the shard count of the deployment's map, spread
	// round-robin over the sites; zero means one shard per site. Every
	// node gets the same -shards/-sites, and the workload routes each
	// write to its key's home site and derives the participant set from
	// the shards touched.
	Shards int
	// KillMidCommit aims the built-in SIGKILL at a coordinator in
	// flight. The survivors must then resolve the transaction on their
	// own — the non-blocking property Paxos Commit exists for.
	KillMidCommit bool
	// Netem names a netem/v1 schedule file to run in place of the
	// built-in fault plan.
	Netem    string
	Retry    time.Duration
	RetryCap time.Duration
	// OpTimeout is every control call's deadline; zero means
	// defaultOpTimeout.
	OpTimeout time.Duration
	// MaxRetry, when positive, is the pinned bound on the cluster's
	// total retransmits+inquiries (the backoff budget check).
	MaxRetry int
}

// report is the run's outcome summary: workload outcomes, the transport
// and retry ledgers, what the fault plan did, and the oracle's verdict.
type report struct {
	Schema   string `json:"schema"`
	Nodes    int    `json:"nodes"`
	Txns     int    `json:"txns"`
	Seed     int64  `json:"seed"`
	Protocol string `json:"protocol,omitempty"`
	// Schedule and Emulator (the proxies' decision tallies) are present
	// only when a schedule ran.
	Schedule  *netem.Schedule `json:"schedule,omitempty"`
	Committed int             `json:"committed"`
	Aborted   int             `json:"aborted"`
	Unknown   int             `json:"unknown"`
	Skipped   int             `json:"skipped"`
	// Killed is the first site the fault plan SIGKILLs; zero if none.
	Killed      int `json:"killed_site"`
	Sent        int `json:"datagrams_sent"`
	Recv        int `json:"datagrams_received"`
	Dropped     int `json:"datagrams_dropped"`
	Oversize    int `json:"oversize_refusals"`
	Retransmits int `json:"retransmits"`
	Inquiries   int `json:"inquiries"`
	// Unavailable counts workload calls that hit their deadline — the
	// typed ErrUnavailable verdicts, each one a hang that didn't happen.
	Unavailable int           `json:"unavailable_calls"`
	Emulator    *netem.Counts `json:"emulator,omitempty"`
	// WALFaults is what each scheduled disk death did, asked of the
	// site just before the heal; one that never fired is a violation.
	WALFaults  []walFaultReport `json:"wal_faults,omitempty"`
	Violations []string         `json:"violations"`
	// Notes is what a run observed that its protocol allows: the
	// mid-commit kill under two-phase commit leaves survivors blocked.
	Notes []string `json:"notes,omitempty"`
	// The layout, and what the workload made of it. ReadOnlyCommitted
	// counts committed transactions that carried a read-only
	// participant (the read-only vote over real UDP).
	Shards              int `json:"shards"`
	CrossShard          int `json:"cross_shard"`
	CrossShardCommitted int `json:"cross_shard_committed"`
	ReadOnlyCommitted   int `json:"read_only_committed"`
}

func (r *report) print(w *os.File) {
	fmt.Fprintf(w, "camelot-cluster: %d nodes, %d txns, seed %d\n", r.Nodes, r.Txns, r.Seed)
	fmt.Fprintf(w, "  sharding: %d shards; %d cross-shard txns, %d committed; %d committed with a read-only participant\n",
		r.Shards, r.CrossShard, r.CrossShardCommitted, r.ReadOnlyCommitted)
	fmt.Fprintf(w, "  outcomes: %d committed, %d aborted, %d unknown, %d skipped; %d calls returned unavailable\n",
		r.Committed, r.Aborted, r.Unknown, r.Skipped, r.Unavailable)
	if e := r.Emulator; e != nil {
		fmt.Fprintf(w, "  emulator: %d seen, %d dropped (%d cut), %d dupped, %d delayed\n",
			e.Seen, e.Dropped, e.Cut, e.Dupped, e.Delayed)
	}
	fmt.Fprintf(w, "  transport: %d sent, %d received, %d dropped, %d oversize; %d retransmits, %d inquiries\n",
		r.Sent, r.Recv, r.Dropped, r.Oversize, r.Retransmits, r.Inquiries)
	for _, f := range r.WALFaults {
		fmt.Fprintf(w, "  wal fault: site %d after %d device writes: %s\n", f.Site, f.DeviceWrites, f.Err)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
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

// proc is one spawned camelot-node, with what it takes to start its
// next incarnation.
type proc struct {
	site             camelot.SiteID
	bin, wal         string
	udpAddr, ctlAddr string
	retry, opTimeout time.Duration
	cmd              *exec.Cmd
	client           *ctl.Client
	down             bool
	frozen           bool // SIGSTOPped: alive, answering nothing
}

// spawn starts a camelot-node, parses its READY line and dials its
// control port with opTimeout as the deadline of every call (zero
// leaves calls unbounded). listen and control are "127.0.0.1:0" on
// first start and the node's previous concrete addresses on a restart,
// so the rest of the cluster's peer maps stay valid across the bounce.
func spawn(bin string, site camelot.SiteID, wal, listen, control string, retry, opTimeout time.Duration, flags ...string) (*proc, error) {
	args := []string{
		"-site", fmt.Sprint(uint32(site)),
		"-wal", wal,
		"-listen", listen,
		"-control", control,
		"-retry", retry.String(),
	}
	args = append(args, flags...)
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start site %d: %w", site, err)
	}
	fail := func(err error) (*proc, error) {
		cmd.Process.Kill() //nolint:errcheck // already failing
		cmd.Wait()         //nolint:errcheck // reap
		return nil, err
	}

	type ready struct {
		udp, ctl string
		err      error
	}
	ch := make(chan ready, 1)
	go func() {
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			line := sc.Text()
			if !strings.HasPrefix(line, "READY ") {
				continue
			}
			var gotSite int
			var r ready
			if _, err := fmt.Sscanf(line, "READY site=%d udp=%s ctl=%s", &gotSite, &r.udp, &r.ctl); err != nil {
				r.err = fmt.Errorf("site %d: bad READY line %q: %v", site, line, err)
			}
			ch <- r
			return
		}
		ch <- ready{err: fmt.Errorf("site %d exited before READY (recovery failure?)", site)}
	}()

	select {
	case r := <-ch:
		if r.err != nil {
			return fail(r.err)
		}
		client, err := ctl.DialTimeout(r.ctl, opTimeout)
		if err != nil {
			return fail(err)
		}
		return &proc{site: site, bin: bin, wal: wal, udpAddr: r.udp, ctlAddr: r.ctl,
			retry: retry, opTimeout: opTimeout, cmd: cmd, client: client}, nil
	case <-time.After(30 * time.Second):
		return fail(fmt.Errorf("site %d: no READY within 30s", site))
	}
}

// kill SIGKILLs the node — the crash recovery exists for. The WAL
// file and the addresses survive for the next incarnation. The signal
// goes first: Close waits for any call in flight on the client, and a
// call to a busy or frozen node returns only once the node is dead.
func (p *proc) kill() {
	if p.down {
		return
	}
	p.cmd.Process.Kill() //nolint:errcheck // SIGKILL is the point
	p.client.Close()     //nolint:errcheck // process is gone
	p.cmd.Wait()         //nolint:errcheck // reap
	p.down, p.frozen = true, false
}

// restart brings a killed node back on its previous addresses under
// the given daemon flags; the daemon replays the WAL before printing
// READY.
func (p *proc) restart(flags []string) error {
	np, err := spawn(p.bin, p.site, p.wal, p.udpAddr, p.ctlAddr, p.retry, p.opTimeout, flags...)
	if err != nil {
		return err
	}
	*p = *np
	return nil
}

// stop terminates the node gracefully at the end of the run.
func (p *proc) stop() {
	if p.down {
		return
	}
	p.client.Close()                   //nolint:errcheck // shutting down
	p.cmd.Process.Signal(os.Interrupt) //nolint:errcheck // best effort
	done := make(chan struct{})
	go func() { p.cmd.Wait(); close(done) }() //nolint:errcheck // reap
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		p.cmd.Process.Kill() //nolint:errcheck // it had its chance
		<-done
	}
	p.down = true
}

// nodeBinary returns the supplied camelot-node binary, building the
// daemon into dir first when none was.
func nodeBinary(supplied, dir string) (string, error) {
	if supplied != "" {
		return supplied, nil
	}
	bin := filepath.Join(dir, "camelot-node")
	build := exec.Command("go", "build", "-o", bin, "camelot/cmd/camelot-node")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		return "", fmt.Errorf("building camelot-node: %w", err)
	}
	return bin, nil
}

// layout is the deployment every node and the driver agree on: sites
// 1..nodes, the shard map over them (built driver-side from the same
// inputs the nodes get), and the daemon flags that make each node
// build an equal map.
func layout(nodes, shards int) ([]camelot.SiteID, *shardmap.Map, []string, error) {
	sites := make([]camelot.SiteID, nodes)
	idList := make([]string, nodes)
	for i := range sites {
		sites[i] = camelot.SiteID(i + 1)
		idList[i] = fmt.Sprint(i + 1)
	}
	m, err := shardmap.New(1, shards, sites)
	if err != nil {
		return nil, nil, nil, err
	}
	return sites, m, []string{"-shards", fmt.Sprint(shards), "-sites", strings.Join(idList, ",")}, nil
}

// driver is one run's state. Everything — workload, fault application,
// heal — runs on the driver goroutine; only the proxies' forwarding
// loops are concurrent, and they touch nothing here.
type driver struct {
	cfg    config
	x      *experiment
	sites  []camelot.SiteID
	smap   *shardmap.Map
	layout []string // -shards/-sites: every incarnation of every node gets them
	procs  map[camelot.SiteID]*proc
	real   map[camelot.SiteID]string // every site's own UDP address, stable across restarts
	// peers is what each site is told its peers' addresses are: the
	// experiment's routes during the fault phase, real from the heal on.
	peers map[camelot.SiteID]map[camelot.SiteID]string
	txns  []oracle.Txn
	rep   *report
}

// run is the one lifecycle. What makes one run a kill/restart workload
// and another a netem storm is the experiment it builds from the
// command line, not a path through this function.
func run(cfg config) (*report, error) {
	if cfg.Nodes < 2 {
		return nil, errors.New("need at least 2 nodes")
	}
	if _, err := wire.ParseProtocol(cfg.Protocol); err != nil {
		return nil, err
	}
	if cfg.Shards <= 0 {
		cfg.Shards = cfg.Nodes
	}
	if cfg.OpTimeout <= 0 {
		cfg.OpTimeout = defaultOpTimeout
	}
	sites, smap, layoutFlags, err := layout(cfg.Nodes, cfg.Shards)
	if err != nil {
		return nil, err
	}
	x, err := newExperiment(cfg, sites)
	if err != nil {
		return nil, err // like every refusal above, before any node is spawned
	}
	dir, err := os.MkdirTemp("", "camelot-cluster-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	bin, err := nodeBinary(cfg.NodeBin, dir)
	if err != nil {
		return nil, err
	}

	d := &driver{cfg: cfg, x: x, sites: sites, smap: smap, layout: layoutFlags,
		procs: make(map[camelot.SiteID]*proc), real: make(map[camelot.SiteID]string),
		rep: &report{Schema: ReportSchema, Nodes: cfg.Nodes, Seed: cfg.Seed, Protocol: cfg.Protocol,
			Schedule: x.schedule, Killed: int(x.killed), Shards: cfg.Shards, Violations: []string{}}}
	defer func() {
		for _, p := range d.procs {
			p.stop()
		}
		x.close()
	}()

	if err := d.boot(bin, dir); err != nil {
		return nil, err
	}
	d.faultPhase()
	if err := d.heal(); err != nil {
		return nil, err
	}
	// Quiesce: outcome retries, backed-off presumed-abort inquiries and
	// ack fan-ins finish against the healed cluster.
	time.Sleep(40 * cfg.Retry)
	d.verify("")
	d.ledgers() // before the bounce resets per-process counters
	if err := d.bounce(); err != nil {
		return nil, err
	}
	d.verify("durability: ")
	d.tally()
	return d.rep, nil
}

// boot spawns every site, verifies over ctl that each routes by the
// driver's map (a disagreement would corrupt data silently, so it is
// fatal before any traffic flows), and tells everyone about everyone:
// nodes bind :0 before the full address map can exist, which is
// exactly the startup race the transport's handler-less backlog covers.
func (d *driver) boot(bin, dir string) error {
	for _, id := range d.sites {
		p, err := spawn(bin, id, filepath.Join(dir, fmt.Sprintf("site%d.wal", id)),
			"127.0.0.1:0", "127.0.0.1:0", d.cfg.Retry, d.cfg.OpTimeout, d.nodeFlags(id, true)...)
		if err != nil {
			return err
		}
		d.procs[id], d.real[id] = p, p.udpAddr
	}
	want, err := d.smap.Marshal()
	if err != nil {
		return err
	}
	for _, id := range d.sites {
		got, err := d.procs[id].client.ShardMap()
		if err != nil {
			return fmt.Errorf("site %d: shard map: %w", id, err)
		}
		if !bytes.Equal(got, want) {
			return fmt.Errorf("site %d shard map disagrees:\n  node:   %s  driver: %s", id, got, want)
		}
	}
	if d.peers, err = d.x.routes(d.sites, d.real); err != nil {
		return err
	}
	return d.revive("boot")
}

// nodeFlags assembles a site's daemon flags: the deployment's layout,
// the backoff cap, and — on first boot and the fault plan's own
// restarts (faulty), for a site the experiment gives a dying disk — the
// failing WAL store.
func (d *driver) nodeFlags(id camelot.SiteID, faulty bool) []string {
	out := append([]string(nil), d.layout...)
	if d.cfg.RetryCap > 0 {
		out = append(out, "-retry-cap", d.cfg.RetryCap.String())
	}
	if n, hit := d.x.walFail[id]; hit && faulty {
		out = append(out, "-wal-fail-append", fmt.Sprint(n))
	}
	return out
}

// client returns a usable control client for the site: reconnecting a
// poisoned one, nil if the site is down, frozen, or unreachable.
func (d *driver) client(id camelot.SiteID) *ctl.Client {
	p := d.procs[id]
	if p.down || p.frozen {
		return nil
	}
	if p.client.Broken() {
		if err := p.client.Reconnect(); err != nil {
			return nil
		}
	}
	return p.client
}

// revive restarts every site that is down, on a healthy disk, and
// installs every site's current peer map.
func (d *driver) revive(phase string) error {
	for _, id := range d.sites {
		if p := d.procs[id]; p.down {
			if err := p.restart(d.nodeFlags(id, false)); err != nil {
				return fmt.Errorf("%s: restarting site %d: %w", phase, id, err)
			}
		}
	}
	for _, id := range d.sites {
		c := d.client(id)
		if c == nil {
			return fmt.Errorf("%s: site %d unreachable", phase, id)
		}
		if err := c.SetPeers(d.peers[id]); err != nil {
			return fmt.Errorf("%s: site %d: peers: %w", phase, id, err)
		}
	}
	return nil
}

// faultPhase drives the experiment's transactions until its progress
// reaches the end, applying each entry of the fault plan once progress
// reaches its mark — between transactions, never under one.
func (d *driver) faultPhase() {
	x := d.x
	exec := &workload.Executor{Client: d.client}
	pending := x.faults
	x.clock.Start()
	for i := 0; x.progress(i, x.clock.Elapsed()) < x.end; i++ {
		for len(pending) > 0 && x.progress(i, x.clock.Elapsed()) >= pending[0].AtMs {
			d.applyProcFault(pending[0])
			pending = pending[1:]
		}
		tx, _ := exec.Run(x.planner(d, i)) // the oracle judges the outcome; the error only says why
		d.txns = append(d.txns, tx)
		time.Sleep(x.pace)
	}
	// What the plan still holds came due under the last transaction (a
	// slow call in flight, the final index): it must still have happened
	// for the heal to undo it.
	for _, f := range pending {
		d.applyProcFault(f)
	}
	d.rep.Txns = len(d.txns)
	d.rep.Unavailable = exec.Unavailable
	d.rep.ReadOnlyCommitted = exec.ReadOnlyCommitted
}

// heal undoes whatever the fault plan left behind: frozen processes
// continue, a scheduled disk death is confirmed and its site taken down
// for a healthy device, dead sites restart, and every peer map points
// at the real addresses, so proxies (and any open-ended window of a
// schedule) drop out of the path. After a plan that already restarted
// everyone it changes nothing.
func (d *driver) heal() error {
	for _, id := range d.sites {
		d.applyProcFault(netem.ProcFault{Site: uint32(id), Op: netem.OpCont})
		if n, hit := d.x.walFail[id]; hit && !d.procs[id].down {
			d.checkWALFault(id, n)
			d.procs[id].kill()
		}
		d.peers[id] = d.real
	}
	return d.revive("heal")
}

// verify asks the recovery oracle about every site over the control
// plane and files what it finds, under prefix, in the report.
func (d *driver) verify(prefix string) {
	views := make(map[camelot.SiteID]oracle.SiteView, len(d.sites))
	for _, id := range d.sites {
		views[id] = &ctl.View{C: d.procs[id].client}
	}
	for _, v := range oracle.CheckViews(d.sites, views, d.txns) {
		d.rep.Violations = append(d.rep.Violations, prefix+v.String())
	}
}

// ledgers totals the transport and retry counters, records what the
// emulator did, and holds the retry total to the pinned budget.
func (d *driver) ledgers() {
	for _, id := range d.sites {
		if st, err := d.procs[id].client.TransportStats(); err == nil {
			d.rep.Sent += st.Sent
			d.rep.Recv += st.Recv
			d.rep.Dropped += st.Dropped
			d.rep.Oversize += st.Oversize
			d.rep.Retransmits += st.Retransmits
			d.rep.Inquiries += st.Inquiries
		}
	}
	d.rep.Emulator = d.x.emulated()
	if d.cfg.MaxRetry > 0 && d.rep.Retransmits+d.rep.Inquiries > d.cfg.MaxRetry {
		d.rep.Violations = append(d.rep.Violations, fmt.Sprintf(
			"retry budget: %d retransmits + %d inquiries exceed the pinned bound %d",
			d.rep.Retransmits, d.rep.Inquiries, d.cfg.MaxRetry))
	}
}

// bounce is the durability pass: a full-cluster crash and recovery.
func (d *driver) bounce() error {
	// Everything lazily buffered must be on disk before the axe: the
	// nodes' flush interval is well under this sleep.
	time.Sleep(250 * time.Millisecond)
	for _, id := range d.sites {
		d.procs[id].kill()
	}
	if err := d.revive("bounce"); err != nil {
		return err
	}
	// In-doubt survivors resolve by inquiry once everyone is back.
	time.Sleep(20 * d.cfg.Retry)
	return nil
}

// tally counts the client's view of the workload into the report.
func (d *driver) tally() {
	for _, tx := range d.txns {
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
		if crossShard(tx) {
			d.rep.CrossShard++
			if tx.Outcome == oracle.Committed {
				d.rep.CrossShardCommitted++
			}
		}
	}
}

// crossShard reports whether a transaction's write set spans more
// than one home site.
func crossShard(tx oracle.Txn) bool {
	if len(tx.Writes) == 0 {
		return false
	}
	for _, w := range tx.Writes[1:] {
		if w.Site != tx.Writes[0].Site {
			return true
		}
	}
	return false
}
