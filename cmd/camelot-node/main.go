// Command camelot-node runs one real Camelot site as a daemon: the
// transaction manager and a data server on the ordinary Go runtime,
// a write-ahead log on disk, transaction-protocol traffic over UDP,
// and a TCP control port through which a driver (cmd/camelot-cluster,
// or anything speaking internal/ctl's JSON-line protocol) operates
// the site.
//
// Startup always runs recovery against the WAL — a no-op on a fresh
// file, a full log replay after a crash — then prints one line:
//
//	READY site=N udp=HOST:PORT ctl=HOST:PORT
//
// to stdout, which the driver parses to learn the bound addresses.
// Peer addresses arrive over the control port (op "peers") once the
// driver has collected everyone's READY line. The process exits on
// SIGINT/SIGTERM; SIGKILL is the crash the WAL exists for.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"camelot/camelot"
	"camelot/internal/ctl"
	"camelot/internal/shardmap"
	"camelot/internal/wal"
)

// parseSites parses a comma-separated site-id list ("1,2,3").
func parseSites(s string) ([]camelot.SiteID, error) {
	var out []camelot.SiteID
	for _, f := range strings.Split(s, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		id, err := strconv.ParseUint(f, 10, 32)
		if err != nil {
			return nil, fmt.Errorf("bad site id %q: %w", f, err)
		}
		out = append(out, camelot.SiteID(id))
	}
	return out, nil
}

func main() {
	var (
		site     = flag.Uint("site", 0, "site id (nonzero, unique per deployment)")
		listen   = flag.String("listen", "127.0.0.1:0", "UDP listen address for transaction-protocol datagrams")
		control  = flag.String("control", "127.0.0.1:0", "TCP listen address for the control plane")
		walPath  = flag.String("wal", "", "write-ahead log file (required)")
		server   = flag.String("server", "store", "data server name")
		retry    = flag.Duration("retry", 50*time.Millisecond, "coordinator retry interval (masks datagram loss)")
		retryCap = flag.Duration("retry-cap", 0, "cap for the exponential retry backoff (0: 8x the retry interval)")
		walFail  = flag.Int("wal-fail-append", -1, "fail the Nth WAL device write (one block: every record a force or flush covered) and every write after it (fault injection; -1: never)")
		protocol = flag.String("protocol", "", "default commit protocol: 2pc, nb, or paxos (empty: per-request flags decide)")
		shards   = flag.Int("shards", 0, "shard count for the sharded data tier (0: legacy single -server)")
		sites    = flag.String("sites", "", "comma-separated site ids of the deployment, in placement order (required with -shards)")
	)
	flag.Parse()
	log.SetPrefix(fmt.Sprintf("camelot-node[site%d]: ", *site))
	log.SetFlags(log.Ltime | log.Lmicroseconds)

	if *site == 0 || *walPath == "" {
		fmt.Fprintln(os.Stderr, "usage: camelot-node -site N -wal PATH [-listen ADDR] [-control ADDR] [-protocol 2pc|nb|paxos]")
		os.Exit(2)
	}
	switch *protocol {
	case "", "2pc", "nb", "paxos":
	default:
		fmt.Fprintf(os.Stderr, "camelot-node: unknown -protocol %q (want 2pc, nb, or paxos)\n", *protocol)
		os.Exit(2)
	}

	cfg := camelot.DefaultRealConfig(camelot.SiteID(*site))
	cfg.Listen = *listen
	cfg.WALPath = *walPath
	cfg.Servers = []string{*server}
	cfg.RetryInterval = *retry
	cfg.InquireInterval = *retry
	cfg.RetryBackoffCap = *retryCap
	cfg.Logf = log.Printf
	if *walFail >= 0 {
		// A netem-driven disk fault: the Nth device write fails and the
		// log fail-stops, turning this site into the crashed site the
		// others must resolve around.
		n := *walFail
		cfg.WrapStore = func(s wal.Store) wal.Store { return wal.NewFailStore(s, n) }
	}
	if *shards > 0 {
		// Every member builds the same map from the same flags
		// (shardmap.New is deterministic); the driver verifies
		// agreement over ctl before running traffic.
		ids, err := parseSites(*sites)
		if err != nil {
			log.Fatalf("-sites: %v", err)
		}
		m, err := shardmap.New(1, *shards, ids)
		if err != nil {
			log.Fatalf("shard map: %v", err)
		}
		cfg.ShardMap = m
	}

	node, err := camelot.StartRealNode(cfg)
	if err != nil {
		log.Fatalf("start: %v", err)
	}
	// Recovery before traffic: replay the on-disk log, reinstall
	// committed state, re-acquire in-doubt locks, resume unresolved
	// commitments. Refusing to run from an unreadable log is the
	// fail-stop behavior recovery relies on.
	if err := node.Recover(); err != nil {
		log.Fatalf("recovery failed, refusing to serve: %v", err)
	}

	srv, err := ctl.Serve(node, *control)
	if err != nil {
		log.Fatalf("control listen: %v", err)
	}
	// Set before the READY line publishes the address: no driver can
	// issue a commit until it has parsed that line.
	srv.SetDefaultProtocol(*protocol)

	// The driver parses this line; keep its shape stable.
	fmt.Printf("READY site=%d udp=%s ctl=%s\n", *site, node.Addr(), srv.Addr())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	s := <-sig
	log.Printf("caught %v, shutting down", s)
	srv.Close()  //nolint:errcheck // exiting anyway
	node.Close() //nolint:errcheck // exiting anyway
}
