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
//
// With -loss P each datagram is dropped with probability P (seeded,
// deterministic): the timeline then shows EvRetry/EvBackoff events and
// the per-site retransmit and inquiry counters go nonzero — the
// recovery machinery a fault-free trace never exercises.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"camelot/camelot"
	"camelot/internal/exp"
	"camelot/internal/params"
	"camelot/internal/sim"
)

type options struct {
	sites    int
	protocol camelot.Protocol
	seed     int64
	loss     float64
	jsonOut  bool
}

func main() {
	var opts options
	flag.IntVar(&opts.sites, "sites", 3, "number of sites (coordinator + sites-1 subordinates)")
	flag.TextVar(&opts.protocol, "protocol", camelot.TwoPhase, "commit protocol: 2pc, nb, or paxos")
	flag.Int64Var(&opts.seed, "seed", 1, "simulation seed (same seed, same timeline)")
	flag.Float64Var(&opts.loss, "loss", 0, "datagram loss probability: losses force retransmits and inquiries into the timeline and counters")
	flag.BoolVar(&opts.jsonOut, "json", false, "emit a machine-readable JSON report")
	flag.Parse()

	out, err := run(opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "camelot-trace:", err)
		os.Exit(1)
	}
	fmt.Print(out)
}

// run executes the traced transaction and renders the report; split
// from main so the golden-file test can call it directly.
func run(opts options) (string, error) {
	if opts.sites < 1 {
		return "", fmt.Errorf("-sites must be at least 1, got %d", opts.sites)
	}
	if opts.loss < 0 || opts.loss >= 1 {
		return "", fmt.Errorf("-loss must be in [0, 1), got %g", opts.loss)
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
	var (
		txid   camelot.TID
		txErr  error
		commit time.Duration
	)
	k.Go("txn", func() {
		start := k.Now()
		tx, err := c.Node(1).Begin()
		if err != nil {
			txErr = err
			k.Stop()
			return
		}
		txid = tx.ID()
		for id := 1; id <= opts.sites; id++ {
			if err := tx.Write(fmt.Sprintf("srv%d", id), "k", []byte("v")); err != nil {
				txErr = err
				k.Stop()
				return
			}
		}
		if err := tx.CommitWith(copts); err != nil {
			txErr = err
			k.Stop()
			return
		}
		commit = k.Now() - start
		k.Sleep(2 * time.Second)
		k.Stop()
	})
	k.RunUntil(time.Minute)
	if msg := k.Deadlocked(); msg != "" {
		return "", fmt.Errorf("simulation deadlocked: %s", msg)
	}
	if txErr != nil {
		return "", fmt.Errorf("transaction failed: %w", txErr)
	}

	if opts.jsonOut {
		return renderJSON(opts, c, txid, commit)
	}
	return renderText(opts, c, txid, commit), nil
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

func renderText(opts options, c *camelot.Cluster, txid camelot.TID, commit time.Duration) string {
	var sb strings.Builder
	sb.WriteString(exp.Figure1(params.Paper()))
	tr := c.Trace()

	fmt.Fprintf(&sb, "\nTraced commit: %d site(s), %s protocol, seed %d\n",
		opts.sites, protocolLabel(opts.protocol), opts.seed)
	fmt.Fprintf(&sb, "  transaction %s committed in %.1f ms\n\n", txid, ms(commit))

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
	return sb.String()
}

// renderJSON emits the machine-readable report; the schema lives in
// internal/trace (trace.Report) so other tools can decode it.
func renderJSON(opts options, c *camelot.Cluster, txid camelot.TID, commit time.Duration) (string, error) {
	rep := c.Trace().BuildReport(opts.sites, protocolLabel(opts.protocol), opts.seed, txid, commit)
	b, err := rep.EncodeJSON()
	if err != nil {
		return "", err
	}
	return string(b), nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
