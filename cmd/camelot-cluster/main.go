// Command camelot-cluster deploys and torments a real multi-process
// Camelot cluster: it spawns one camelot-node per site on loopback,
// all under one shard map (-shards shards round-robin over the sites,
// one per site by default), drives a seeded keyspace workload through
// their control ports — two-phase, non-blocking, and Paxos commits,
// write sets straddling shards on distinct sites, hot keys, read-only
// participants — SIGKILLs a subordinate mid-run (or, with
// -kill-mid-commit, a coordinator with
// its own commit in flight), restarts it against its surviving
// write-ahead log, and then checks the recovery oracle's invariants
// (atomicity, client view, outcome agreement, liveness) over the
// control plane. With -bounce it finally SIGKILLs and restarts every
// node and checks again: updates that survive that pass were
// genuinely on disk.
//
// This is the chaos explorer's discipline applied to real processes:
// same invariants, same oracle, but real UDP loss-and-reorder, real
// fsync, real SIGKILL.
//
//	camelot-cluster -nodes 3 -txns 200 -seed 1
//
// With -netem FILE the driver instead replays a netem/v1 schedule
// (internal/netem) against the cluster: every UDP link is interposed
// through an emulator proxy applying the schedule's drop, duplication,
// reordering, delay-jitter, and partition windows, while the schedule's
// process faults (kill, stop, cont, restart) and WAL disk faults land
// on the same clock. After the fault phase the driver heals the
// cluster — continues frozen processes, restarts dead ones, removes
// the proxies from the path — and checks the same oracle invariants,
// plus an optional pinned bound on total retransmits+inquiries
// (-max-retry), the budget the exponential backoff must keep.
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
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"

	"camelot/camelot"
	"camelot/internal/ctl"
	"camelot/internal/oracle"
	"camelot/internal/shardmap"
	"camelot/internal/wire"
)

// ReportSchema identifies the -json output format.
const ReportSchema = "camelot-cluster/v1"

func main() {
	cfg := clusterConfig{}
	flag.IntVar(&cfg.Nodes, "nodes", 3, "number of sites")
	flag.IntVar(&cfg.Txns, "txns", 200, "workload transactions")
	flag.Int64Var(&cfg.Seed, "seed", 1, "workload seed")
	flag.StringVar(&cfg.NodeBin, "node", "", "camelot-node binary (built with 'go build' when empty)")
	flag.StringVar(&cfg.Protocol, "protocol", "", "commit protocol for every transaction: 2pc, nb, or paxos (empty: cycle through all three per txn)")
	flag.IntVar(&cfg.Shards, "shards", 0, "shard the keyspace into N shards round-robin over the sites (0: one shard per site)")
	flag.BoolVar(&cfg.JSON, "json", false, "emit a JSON report on stdout")
	flag.BoolVar(&cfg.Bounce, "bounce", true, "after the run, kill and restart every node and re-check durability")
	flag.BoolVar(&cfg.Kill, "kill", true, "SIGKILL a subordinate mid-run and restart it later")
	flag.BoolVar(&cfg.KillMidCommit, "kill-mid-commit", false, "make the killed site the coordinator and SIGKILL it during its own commit")
	flag.DurationVar(&cfg.Retry, "retry", 50*time.Millisecond, "node retry interval")
	netemFile := flag.String("netem", "", "netem/v1 schedule file: run the network-fault-emulation mode instead of the kill/restart workload")
	retryCap := flag.Duration("retry-cap", 0, "netem mode: node retry-backoff cap (0: the node default)")
	opTimeout := flag.Duration("op-timeout", 3*time.Second, "netem mode: per-control-call deadline")
	maxRetry := flag.Int("max-retry", 0, "netem mode: pinned bound on total retransmits+inquiries; exceeding it is a violation (0: unbounded)")
	flag.Parse()

	if *netemFile != "" {
		nrep, err := runNetem(netemConfig{
			ScheduleFile: *netemFile,
			Nodes:        cfg.Nodes,
			Seed:         cfg.Seed,
			Protocol:     cfg.Protocol,
			NodeBin:      cfg.NodeBin,
			Retry:        cfg.Retry,
			RetryCap:     *retryCap,
			OpTimeout:    *opTimeout,
			MaxRetry:     *maxRetry,
			JSON:         cfg.JSON,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "camelot-cluster:", err)
			os.Exit(1)
		}
		if cfg.JSON {
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			enc.Encode(nrep) //nolint:errcheck // stdout
		} else {
			nrep.print(os.Stderr)
		}
		if len(nrep.Violations) > 0 {
			os.Exit(1)
		}
		return
	}

	rep, err := runCluster(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "camelot-cluster:", err)
		os.Exit(1)
	}
	if cfg.JSON {
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

type clusterConfig struct {
	Nodes int
	Txns  int
	Seed  int64
	// Protocol pins every commit to one protocol ("2pc", "nb",
	// "paxos"); empty cycles through all three per transaction.
	Protocol string
	NodeBin  string
	JSON     bool
	Bounce   bool
	Kill     bool
	// KillMidCommit aims the SIGKILL at a coordinator in flight: the
	// victim site coordinates an all-site transaction and dies a
	// moment after its commit call is issued. The survivors must then
	// resolve the transaction on their own — the non-blocking property
	// Paxos Commit exists for.
	KillMidCommit bool
	Retry         time.Duration
	// Shards is the shard count of the deployment's map, spread
	// round-robin over the sites; zero means one shard per site. Every
	// node gets the same -shards/-sites, the driver checks map
	// agreement over ctl, and the workload routes each write to its
	// key's home site, derives the participant set from the shards
	// touched, and is verified by the cross-shard atomicity oracle.
	Shards int
}

// report is the run's outcome summary.
type report struct {
	Schema     string   `json:"schema"`
	Nodes      int      `json:"nodes"`
	Txns       int      `json:"txns"`
	Seed       int64    `json:"seed"`
	Protocol   string   `json:"protocol,omitempty"`
	Committed  int      `json:"committed"`
	Aborted    int      `json:"aborted"`
	Unknown    int      `json:"unknown"`
	Skipped    int      `json:"skipped"`
	Killed     int      `json:"killed_site"`
	Sent       int      `json:"datagrams_sent"`
	Recv       int      `json:"datagrams_received"`
	Dropped    int      `json:"datagrams_dropped"`
	Oversize   int      `json:"oversize_refusals"`
	Violations []string `json:"violations"`
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
	fmt.Fprintf(w, "  outcomes: %d committed, %d aborted, %d unknown, %d skipped\n",
		r.Committed, r.Aborted, r.Unknown, r.Skipped)
	fmt.Fprintf(w, "  transport: %d sent, %d received, %d dropped, %d oversize\n",
		r.Sent, r.Recv, r.Dropped, r.Oversize)
	if len(r.Violations) == 0 {
		fmt.Fprintf(w, "  oracle: all invariants hold\n")
		return
	}
	fmt.Fprintf(w, "  oracle: %d violations\n", len(r.Violations))
	for _, v := range r.Violations {
		fmt.Fprintf(w, "    %s\n", v)
	}
}

// proc is one spawned camelot-node.
type proc struct {
	site    camelot.SiteID
	wal     string
	udpAddr string
	ctlAddr string
	cmd     *exec.Cmd
	client  *ctl.Client
	down    bool
	extra   []string // extra daemon flags, reused across restarts
}

// spawn starts a camelot-node and parses its READY line. listen and
// control are "127.0.0.1:0" on first start and the node's previous
// concrete addresses on a restart, so the rest of the cluster's peer
// maps stay valid across the bounce. extra flags (the shard map's
// -shards/-sites) are replayed verbatim on every incarnation.
func spawn(bin string, site camelot.SiteID, wal, listen, control string, retry time.Duration, extra ...string) (*proc, error) {
	args := []string{
		"-site", fmt.Sprint(uint32(site)),
		"-wal", wal,
		"-listen", listen,
		"-control", control,
		"-retry", retry.String(),
	}
	args = append(args, extra...)
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start site %d: %w", site, err)
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
			cmd.Process.Kill() //nolint:errcheck // already failing
			cmd.Wait()         //nolint:errcheck // reap
			return nil, r.err
		}
		client, err := ctl.Dial(r.ctl)
		if err != nil {
			cmd.Process.Kill() //nolint:errcheck // already failing
			cmd.Wait()         //nolint:errcheck // reap
			return nil, err
		}
		return &proc{site: site, wal: wal, udpAddr: r.udp, ctlAddr: r.ctl, cmd: cmd, client: client, extra: extra}, nil
	case <-time.After(30 * time.Second):
		cmd.Process.Kill() //nolint:errcheck // already failing
		cmd.Wait()         //nolint:errcheck // reap
		return nil, fmt.Errorf("site %d: no READY within 30s", site)
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
	p.down = true
}

// restart brings a killed node back on its previous addresses; the
// daemon replays the WAL before printing READY.
func (p *proc) restart(bin string, retry time.Duration) error {
	np, err := spawn(bin, p.site, p.wal, p.udpAddr, p.ctlAddr, retry, p.extra...)
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

// checkShardMaps verifies over ctl that every node routes by the
// driver's map. A disagreement would corrupt data silently, so it is
// fatal before any traffic flows.
func checkShardMaps(sites []camelot.SiteID, procs map[camelot.SiteID]*proc, m *shardmap.Map) error {
	want, err := m.Marshal()
	if err != nil {
		return err
	}
	for _, id := range sites {
		got, err := procs[id].client.ShardMap()
		if err != nil {
			return fmt.Errorf("site %d: shard map: %w", id, err)
		}
		if !bytes.Equal(got, want) {
			return fmt.Errorf("site %d shard map disagrees:\n  node:   %s  driver: %s", id, got, want)
		}
	}
	return nil
}

func runCluster(cfg clusterConfig) (*report, error) {
	if cfg.Nodes < 2 {
		return nil, errors.New("need at least 2 nodes")
	}
	if _, err := wire.ParseProtocol(cfg.Protocol); err != nil {
		return nil, err // before any node is spawned
	}
	if cfg.Shards <= 0 {
		cfg.Shards = cfg.Nodes
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
	sites, smap, extra, err := layout(cfg.Nodes, cfg.Shards)
	if err != nil {
		return nil, err
	}

	// Boot every site, collect addresses, then tell everyone about
	// everyone: nodes bind :0 before the full address map can exist,
	// which is exactly the startup race the transport's handler-less
	// backlog covers.
	procs := make(map[camelot.SiteID]*proc)
	defer func() {
		for _, p := range procs {
			p.stop()
		}
	}()
	for _, id := range sites {
		p, err := spawn(bin, id, filepath.Join(dir, fmt.Sprintf("site%d.wal", id)),
			"127.0.0.1:0", "127.0.0.1:0", cfg.Retry, extra...)
		if err != nil {
			return nil, err
		}
		procs[id] = p
	}
	if err := checkShardMaps(sites, procs, smap); err != nil {
		return nil, err
	}
	peers := make(map[camelot.SiteID]string, len(sites))
	for id, p := range procs {
		peers[id] = p.udpAddr
	}
	sendPeers := func() error {
		for _, id := range sites {
			if p := procs[id]; !p.down {
				if err := p.client.SetPeers(peers); err != nil {
					return fmt.Errorf("site %d: peers: %w", id, err)
				}
			}
		}
		return nil
	}
	if err := sendPeers(); err != nil {
		return nil, err
	}

	// The fault schedule: SIGKILL the highest site a third of the way
	// in, restart it at two thirds. Index-based, so a seed names one
	// deterministic schedule.
	victim := sites[len(sites)-1]
	killAt, restartAt := cfg.Txns/3, 2*cfg.Txns/3
	rep := &report{Schema: ReportSchema, Nodes: cfg.Nodes, Txns: cfg.Txns, Seed: cfg.Seed,
		Protocol: cfg.Protocol, Killed: int(victim), Violations: []string{},
		Shards: cfg.Shards}

	exec := &executor{client: func(id camelot.SiteID) *ctl.Client {
		if procs[id].down {
			return nil
		}
		return procs[id].client
	}}
	rng := rand.New(rand.NewSource(cfg.Seed))
	txns := make([]oracle.Txn, cfg.Txns)
	for i := 0; i < cfg.Txns; i++ {
		protocol := protocolFor(cfg.Protocol, i)
		if cfg.Kill && i == killAt {
			if cfg.KillMidCommit {
				// The victim coordinates a transaction with a key on
				// every placed site and is SIGKILLed with its commit in
				// flight; the survivors must resolve their shards of it
				// — and release its locks — before the coordinator ever
				// comes back.
				p := planAcross(i, smap, smap.Sites(), victim, protocol)
				var witnesses []*proc
				for _, w := range p.tx.Writes {
					if w.Site != victim {
						witnesses = append(witnesses, procs[w.Site])
					}
				}
				p.commitVia = killMidCommit(procs[victim], witnesses)
				txns[i] = exec.run(p)
				time.Sleep(20 * cfg.Retry)
				rep.Violations = append(rep.Violations, survivorsResolved(procs, txns[i])...)
				continue
			}
			procs[victim].kill()
		}
		if cfg.Kill && i == restartAt {
			if err := procs[victim].restart(bin, cfg.Retry); err != nil {
				return nil, fmt.Errorf("restarting site %d: %w", victim, err)
			}
			if err := sendPeers(); err != nil {
				return nil, err
			}
		}
		txns[i] = exec.run(planMix(rng, i, smap, txns[:i], protocol))
	}
	rep.ReadOnlyCommitted = exec.readOnlyCommitted

	// Quiesce: let outcome retries, presumed-abort inquiries, and ack
	// fan-ins finish against the healed cluster.
	time.Sleep(20 * cfg.Retry)

	views := make(map[camelot.SiteID]oracle.SiteView, len(sites))
	for _, id := range sites {
		views[id] = &ctl.View{C: procs[id].client}
	}
	for _, v := range oracle.CheckViews(sites, views, txns) {
		rep.Violations = append(rep.Violations, v.String())
	}

	// Transport counters, before any bounce resets the processes.
	for _, id := range sites {
		if st, err := procs[id].client.TransportStats(); err == nil {
			rep.Sent += st.Sent
			rep.Recv += st.Recv
			rep.Dropped += st.Dropped
			rep.Oversize += st.Oversize
		}
	}

	if cfg.Bounce {
		// Everything lazily buffered must be on disk before the axe:
		// the nodes' flush interval is well under this sleep.
		time.Sleep(250 * time.Millisecond)
		for _, id := range sites {
			procs[id].kill()
		}
		for _, id := range sites {
			if err := procs[id].restart(bin, cfg.Retry); err != nil {
				return nil, fmt.Errorf("bounce: restarting site %d: %w", id, err)
			}
		}
		if err := sendPeers(); err != nil {
			return nil, err
		}
		// In-doubt survivors resolve by inquiry once everyone is back.
		time.Sleep(20 * cfg.Retry)
		for _, id := range sites {
			views[id] = &ctl.View{C: procs[id].client}
		}
		for _, v := range oracle.CheckViews(sites, views, txns) {
			rep.Violations = append(rep.Violations, "durability: "+v.String())
		}
	}

	for _, tx := range txns {
		switch tx.Outcome {
		case oracle.Committed:
			rep.Committed++
		case oracle.Aborted:
			rep.Aborted++
		case oracle.Skipped:
			rep.Skipped++
		default:
			rep.Unknown++
		}
		if crossShard(tx) {
			rep.CrossShard++
			if tx.Outcome == oracle.Committed {
				rep.CrossShardCommitted++
			}
		}
	}
	return rep, nil
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
