// Command camelot-trace runs one distributed update transaction under
// the configured commit protocol and prints the full structured event
// timeline — log forces, device writes, datagrams, protocol phases,
// lock drops — together with the per-site and per-transaction counters
// the paper's budget analysis is built on. In the default text mode it
// first regenerates the paper's Figure 1 for context; with -json it
// emits a machine-readable report instead (stable across runs with the
// same seed, suitable for golden-file testing).
//
// Usage:
//
//	camelot-trace [-sites N] [-protocol 2pc|nb|paxos] [-seed S] [-loss P] [-json]
//	              [-fault none|crash-coordinator|crash-sub|isolate-coordinator|isolate-sub]
//	              [-fault-after D] [-heal-after D]
//
// With -loss P each datagram is dropped with probability P (seeded,
// deterministic): the timeline then shows EvRetry/EvBackoff events and
// the per-site retransmit and inquiry counters go nonzero — the
// recovery machinery a fault-free trace never exercises.
//
// With -fault the commit runs on its own thread and, -fault-after it
// is issued, the coordinator (site 1) or a subordinate (site 2) either
// crashes or is cut off from every other site; -heal-after D later it
// recovers or its links heal (never, for 0). The run then drains long
// enough for inquiry, promotion and recovery timers to fire, and the
// text report ends with each site's state: the blocking and
// non-blocking scenarios of §3.3/§4.3 as one scriptable command.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"time"

	"camelot/camelot"
	"camelot/internal/exp"
	"camelot/internal/params"
	"camelot/internal/sim"
)

type options struct {
	sites      int
	protocol   camelot.Protocol
	seed       int64
	loss       float64
	jsonOut    bool
	fault      string // one of faults; "" means "none"
	faultAfter time.Duration
	healAfter  time.Duration
}

// faults are -fault's values. "sub" is site 2; "isolate" cuts every
// link between the victim and the other sites.
var faults = []string{"none", "crash-coordinator", "crash-sub", "isolate-coordinator", "isolate-sub"}

// faultDrain is how long a fault run keeps simulating after the fault
// (and its heal): long enough for inquiry, promotion and recovery
// timers to fire.
const faultDrain = 30 * time.Second

func main() {
	var opts options
	flag.IntVar(&opts.sites, "sites", 3, "number of sites (coordinator + sites-1 subordinates)")
	flag.TextVar(&opts.protocol, "protocol", camelot.TwoPhase, "commit protocol: 2pc, nb, or paxos")
	flag.Int64Var(&opts.seed, "seed", 1, "simulation seed (same seed, same timeline)")
	flag.Float64Var(&opts.loss, "loss", 0, "datagram loss probability: losses force retransmits and inquiries into the timeline and counters")
	flag.BoolVar(&opts.jsonOut, "json", false, "emit a machine-readable JSON report")
	flag.StringVar(&opts.fault, "fault", "none", "fault injected mid-commit: "+strings.Join(faults, ", ")+" (sub = site 2)")
	flag.DurationVar(&opts.faultAfter, "fault-after", 50*time.Millisecond, "inject -fault this long after the commit call")
	flag.DurationVar(&opts.healAfter, "heal-after", 0, "recover the crashed site or heal the isolated one's links this long after the fault (0 = never)")
	flag.Parse()

	out, err := run(opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "camelot-trace:", err)
		os.Exit(1)
	}
	fmt.Print(out)
}

// result is one simulated run, observed after its drain.
type result struct {
	c      *camelot.Cluster
	txid   camelot.TID
	commit time.Duration // client-observed commit latency
	// returned reports whether the commit call returned within the
	// run, and commitErr what it returned; a fault run may block it.
	returned  bool
	commitErr error
}

// run executes the traced transaction and renders the report; split
// from main so the golden-file test can call it directly.
func run(opts options) (string, error) {
	if opts.fault == "" {
		opts.fault = "none"
	}
	r, err := simulate(opts)
	if err != nil {
		return "", err
	}
	if opts.jsonOut {
		rep := r.c.Trace().BuildReport(opts.sites, protocolLabel(opts.protocol), opts.seed, r.txid, r.commit)
		b, err := rep.EncodeJSON()
		return string(b), err
	}
	return renderText(opts, r), nil
}

// simulate validates opts, runs the transaction (and the fault, if
// any) on a fresh simulated cluster, and drains it.
func simulate(opts options) (*result, error) {
	if opts.sites < 1 {
		return nil, fmt.Errorf("-sites must be at least 1, got %d", opts.sites)
	}
	if opts.loss < 0 || opts.loss >= 1 {
		return nil, fmt.Errorf("-loss must be in [0, 1), got %g", opts.loss)
	}
	if err := opts.protocol.Check(); err != nil {
		return nil, err
	}
	if !slices.Contains(faults, opts.fault) {
		return nil, fmt.Errorf("unknown fault %q (want one of %s)", opts.fault, strings.Join(faults, ", "))
	}
	if opts.fault != "none" && opts.sites < 2 {
		return nil, fmt.Errorf("-fault %s needs at least 2 sites, got %d", opts.fault, opts.sites)
	}
	if opts.faultAfter < 0 || opts.healAfter < 0 {
		return nil, fmt.Errorf("-fault-after and -heal-after must not be negative")
	}
	// Paxos runs at F=1 so the trace shows the replicated acceptor set.
	copts := camelot.Options{Protocol: opts.protocol, PaxosF: 1}

	k := sim.New(opts.seed)
	cfg := camelot.DefaultConfig()
	cfg.Trace = true
	cfg.LossRate = opts.loss
	c := camelot.NewCluster(k, cfg)
	for id := camelot.SiteID(1); id <= camelot.SiteID(opts.sites); id++ {
		c.AddNode(id).AddServer(fmt.Sprintf("srv%d", id))
	}

	// One update at every site, committed from site 1 under the
	// selected protocol; then a drain long enough for the delayed
	// commit records and batched acks to flow, so the timeline is
	// complete rather than cut off at the client's return.
	r := &result{c: c}
	var txErr error
	k.Go("txn", func() {
		start := k.Now()
		tx, err := c.Node(1).Begin()
		if err != nil {
			txErr = err
			k.Stop()
			return
		}
		r.txid = tx.ID()
		for id := 1; id <= opts.sites; id++ {
			if err := tx.Write(fmt.Sprintf("srv%d", id), "k", []byte("v")); err != nil {
				txErr = err
				k.Stop()
				return
			}
		}
		if opts.fault == "none" {
			if err := tx.CommitWith(copts); err != nil {
				txErr = err
				k.Stop()
				return
			}
			r.commit = k.Now() - start
			k.Sleep(2 * time.Second)
			k.Stop()
			return
		}
		k.Go("commit", func() {
			r.commitErr = tx.CommitWith(copts)
			r.commit, r.returned = k.Now()-start, true
		})
		k.Sleep(opts.faultAfter)
		inject(c, opts, true)
		if opts.healAfter > 0 {
			k.Sleep(opts.healAfter)
			inject(c, opts, false)
		}
		k.Sleep(faultDrain)
		k.Stop()
	})
	k.RunUntil(time.Minute + opts.faultAfter + opts.healAfter)
	if msg := k.Deadlocked(); msg != "" {
		return nil, fmt.Errorf("simulation deadlocked: %s", msg)
	}
	if txErr != nil {
		return nil, fmt.Errorf("transaction failed: %w", txErr)
	}
	return r, nil
}

// victim is the site -fault hits: the coordinator, site 1, or site 2.
func victim(fault string) camelot.SiteID {
	if strings.HasSuffix(fault, "-sub") {
		return 2
	}
	return 1
}

// inject applies opts.fault to its victim (on) or undoes it (off):
// a crash and a recovery, or cutting and healing every link between
// the victim and the other sites.
func inject(c *camelot.Cluster, opts options, on bool) {
	victim := victim(opts.fault)
	if strings.HasPrefix(opts.fault, "crash-") {
		if on {
			c.Node(victim).Crash()
		} else {
			c.Node(victim).Recover() //nolint:errcheck // a refused recovery leaves the site crashed, which the report shows
		}
		return
	}
	for id := camelot.SiteID(1); id <= camelot.SiteID(opts.sites); id++ {
		if id != victim {
			c.Network().SetPartition(victim, id, on)
		}
	}
}

// siteState is one site's view of the transaction at the end of a
// run: who blocked, who resolved, and how.
type siteState struct {
	site    camelot.SiteID
	crashed bool
	// value: the transaction's write is in the site's data. Servers
	// update in place, so an in-doubt write is there too, still locked.
	value      bool
	locked     bool // the transaction still holds its lock at the site
	outcome    camelot.Outcome
	promotions int
	inquiries  int
}

func siteStates(r *result, sites int) []siteState {
	var out []siteState
	for id := camelot.SiteID(1); id <= camelot.SiteID(sites); id++ {
		n := r.c.Node(id)
		st := siteState{site: id, crashed: n.Crashed()}
		if !st.crashed {
			srv := n.Server(fmt.Sprintf("srv%d", id))
			_, st.value = srv.Peek("k")
			st.locked = srv.Locks().HoldsAny(r.txid)
			st.outcome = n.OutcomeOf(r.txid.Family)
			stats := n.TM().Stats()
			st.promotions, st.inquiries = stats.Promotions, stats.Inquiries
		}
		out = append(out, st)
	}
	return out
}

// protocolLabel is the report's long name for p; the goldens pin it.
func protocolLabel(p camelot.Protocol) string {
	switch p {
	case camelot.TwoPhase:
		return "two-phase"
	case camelot.NonBlocking:
		return "non-blocking"
	case camelot.Paxos:
		return "paxos"
	}
	return p.String()
}

func renderText(opts options, r *result) string {
	var sb strings.Builder
	sb.WriteString(exp.Figure1(params.Paper()))
	tr := r.c.Trace()
	txid := r.txid

	fmt.Fprintf(&sb, "\nTraced commit: %d site(s), %s protocol, seed %d\n",
		opts.sites, protocolLabel(opts.protocol), opts.seed)
	if opts.fault == "none" {
		fmt.Fprintf(&sb, "  transaction %s committed in %.1f ms\n\n", txid, ms(r.commit))
	} else {
		heal := "never healed"
		if opts.healAfter > 0 {
			heal = fmt.Sprintf("healed %.1f ms later", ms(opts.healAfter))
		}
		fmt.Fprintf(&sb, "  fault: %s (site %d) %.1f ms after the commit call, %s\n",
			opts.fault, victim(opts.fault), ms(opts.faultAfter), heal)
		fmt.Fprintf(&sb, "  transaction %s: %s\n\n", txid, commitResult(r))
	}

	sb.WriteString("Event timeline:\n")
	for _, ev := range tr.Events() {
		fmt.Fprintf(&sb, "  %s\n", ev)
	}

	sb.WriteString("\nPer-site counters:\n")
	sb.WriteString("  site    appends forces devwr  bytes   sent   recv   drop   rpcs   ipcs\n")
	for _, s := range tr.Sites() {
		sc := tr.Site(s)
		fmt.Fprintf(&sb, "  %-7s %7d %6d %5d %6d %6d %6d %6d %6d %6d\n",
			s, sc.LogAppends, sc.LogForces, sc.DeviceWrites, sc.BytesWritten,
			sc.MsgsSent, sc.MsgsRecv, sc.MsgsDropped, sc.RPCs, sc.IPCs)
	}

	fmt.Fprintf(&sb, "\nTransaction %s budget per site:\n", txid)
	sb.WriteString("  site    appends forces   sent   recv\n")
	for _, s := range tr.Sites() {
		fc := tr.Family(txid, s)
		fmt.Fprintf(&sb, "  %-7s %7d %6d %6d %6d\n",
			s, fc.LogAppends, fc.LogForces, fc.MsgsSent, fc.MsgsRecv)
	}
	total := tr.FamilyTotal(txid)
	fmt.Fprintf(&sb, "  total   %7d %6d %6d %6d\n",
		total.LogAppends, total.LogForces, total.MsgsSent, total.MsgsRecv)

	if phases := tr.Phases(); len(phases) > 0 {
		sb.WriteString("\nPhase latencies (ms):\n")
		for _, p := range phases {
			s := tr.PhaseLatency(p)
			fmt.Fprintf(&sb, "  %-10s n=%-3d mean=%7.2f max=%7.2f\n", p, s.N(), s.Mean(), s.Max())
		}
	}

	if opts.fault != "none" {
		sb.WriteString("\nSite state after the drain:\n")
		sb.WriteString("  site    crashed  value    locked  outcome  promotions  inquiries\n")
		for _, st := range siteStates(r, opts.sites) {
			if st.crashed {
				fmt.Fprintf(&sb, "  %-7s yes\n", st.site)
				continue
			}
			value := "absent"
			if st.value {
				value = "present"
			}
			locked := "no"
			if st.locked {
				locked = "yes"
			}
			fmt.Fprintf(&sb, "  %-7s no       %-8s %-7s %-8s %10d %10d\n",
				st.site, value, locked, st.outcome, st.promotions, st.inquiries)
		}
	}
	return sb.String()
}

// commitResult says what the client's commit call returned, and when.
func commitResult(r *result) string {
	switch {
	case !r.returned:
		return "commit-transaction did not return"
	case r.commitErr == nil:
		return fmt.Sprintf("commit-transaction returned COMMITTED after %.1f ms", ms(r.commit))
	case errors.Is(r.commitErr, camelot.ErrAborted):
		return fmt.Sprintf("commit-transaction returned ABORTED after %.1f ms", ms(r.commit))
	}
	return fmt.Sprintf("commit-transaction returned %q after %.1f ms", r.commitErr, ms(r.commit))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
