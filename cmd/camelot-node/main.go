// Command camelot-node runs one real Camelot site as a daemon: the
// transaction manager and the site's shard servers on the ordinary Go
// runtime, a write-ahead log on disk, transaction-protocol traffic over
// UDP, and a TCP control port through which a driver
// (cmd/camelot-cluster, or anything speaking internal/ctl's JSON-line
// protocol) operates the site.
//
//	camelot-node -site N -wal PATH [-sites 1,2,3 [-shards K]]
//	             [-listen ADDR] [-control ADDR] [-retry D] [-retry-cap D]
//
// -sites lists the deployment's members in placement order; the
// keyspace is split into -shards shards (default: one per member)
// placed round-robin over them, and every member given the same two
// flags builds the same map. Without -sites the node is a deployment of
// one and homes the whole keyspace itself. Restart a node under the
// flags it was first started with: recovery refuses a log that names
// shard servers the current map does not place here.
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
		retry    = flag.Duration("retry", 50*time.Millisecond, "coordinator retry interval (masks datagram loss)")
		retryCap = flag.Duration("retry-cap", 0, "cap for the exponential retry backoff (0: 8x the retry interval)")
		walFail  = flag.Int("wal-fail-append", -1, "lose the Nth WAL device write (one block: every record a force or flush covered; counted from zero): wal.FaultStore's lost mode, after which the log fail-stops (fault injection; -1: never)")
		shards   = flag.Int("shards", 0, "shard count, placed round-robin over -sites (0: one shard per site; needs -sites)")
		sites    = flag.String("sites", "", "comma-separated site ids of the deployment, in placement order (empty: this site alone)")
	)
	flag.Parse()
	log.SetPrefix(fmt.Sprintf("camelot-node[site%d]: ", *site))
	log.SetFlags(log.Ltime | log.Lmicroseconds)

	if *site == 0 || *walPath == "" {
		fmt.Fprintln(os.Stderr, "usage: camelot-node -site N -wal PATH [-sites 1,2,3 [-shards K]] [-listen ADDR] [-control ADDR]")
		os.Exit(2)
	}

	cfg := camelot.DefaultRealConfig(camelot.SiteID(*site))
	cfg.Listen = *listen
	cfg.WALPath = *walPath
	cfg.RetryInterval = *retry
	cfg.RetryBackoffCap = *retryCap
	cfg.Logf = log.Printf
	if *walFail >= 0 {
		// A netem-driven disk fault: the Nth device write fails and the
		// log fail-stops, turning this site into the crashed site the
		// others must resolve around.
		n := *walFail
		cfg.WrapStore = func(s wal.Store) wal.Store {
			fs := wal.NewFaultStore(s, nil)
			fs.ArmAppend(n, wal.DamageLost)
			return fs
		}
	}
	// Every member builds the same map from the same flags
	// (shardmap.New is deterministic); the driver verifies agreement
	// over ctl before running traffic. With no -sites the config's
	// one-site default map stands.
	ids, err := parseSites(*sites)
	if err != nil {
		log.Fatalf("-sites: %v", err)
	}
	if len(ids) > 0 || *shards > 0 {
		if *shards <= 0 {
			*shards = len(ids)
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
	// The driver parses this line; keep its shape stable.
	fmt.Printf("READY site=%d udp=%s ctl=%s\n", *site, node.Addr(), srv.Addr())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	s := <-sig
	log.Printf("caught %v, shutting down", s)
	srv.Close()  //nolint:errcheck // exiting anyway
	node.Close() //nolint:errcheck // exiting anyway
}
