package ctl

import (
	"bytes"
	"encoding/json"
	"net/netip"
	"path/filepath"
	"testing"
	"time"

	"camelot/camelot"
)

// requestLineSeeds is the corpus of FuzzRequestLine and FuzzCodec.
var requestLineSeeds = []string{
	`{"op":"ping"}`,
	`{"op":"begin"}`,
	`{"op":"writekey","family":4294967297,"seq":1,"key":"k","val":"dg=="}`,
	`{"op":"readkey","family":4294967297,"key":"k"}`,
	`{"op":"readkey","family":4294967297,"key":"absent"}`,
	`{"op":"addsites","family":4294967297,"sites":[1]}`,
	`{"op":"commit","family":4294967297,"protocol":"paxos"}`,
	`{"op":"commit","family":4294967297,"protocol":"paxso"}`,
	`{"op":"abort","family":4294967298}`,
	`{"op":"peers","peers":{"2":"127.0.0.1:9","x":"127.0.0.1:9"}}`,
	`{"op":"outcome","family":1}`,
	`{"op":"peekkey","key":""}`,
	`{"op":"shardmap"}`, `{"op":"probe"}`, `{"op":"stats"}`,
	`{"op":"nope"}`, `{"op":7}`, `[]`, `{`, "", "\x00\xff",
}

// FuzzRequestLine feeds arbitrary bytes to a node's control server as
// one request line. Whatever they are, the server must not panic, and
// what its encoder writes back must be exactly one line of valid JSON —
// the framing every client's next exchange depends on.
func FuzzRequestLine(f *testing.F) {
	for _, seed := range requestLineSeeds {
		f.Add([]byte(seed))
	}

	// One throw-away node for the whole run. Its timers are short, so a
	// request that leaves a lock held or a family waiting on a site that
	// does not exist costs the requests after it milliseconds.
	cfg := camelot.DefaultRealConfig(1)
	cfg.WALPath = filepath.Join(f.TempDir(), "wal")
	cfg.LockTimeout = 5 * time.Millisecond
	cfg.RetryInterval = time.Millisecond
	n, err := camelot.StartRealNode(cfg)
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { n.Close() }) //nolint:errcheck // test teardown
	if err := n.Recover(); err != nil {
		f.Fatal(err)
	}
	s := &Server{node: n}

	f.Fuzz(func(t *testing.T, line []byte) {
		var req Request
		if decodeRequest(line, &req) == nil {
			// The node resolves a peer's address and later sends it
			// datagrams; only loopback may be named from a test. And a
			// transaction that names a site other than this one waits out
			// every retry for it, which exercises timers, not the decoder.
			for _, addr := range req.Peers {
				if ap, err := netip.ParseAddrPort(addr); err != nil || !ap.Addr().IsLoopback() {
					t.Skip("peer address outside loopback")
				}
			}
			for _, site := range req.Sites {
				if camelot.SiteID(site) != n.ID() {
					t.Skip("names a site that does not exist")
				}
			}
		}
		resp := s.serveLine(line)
		b := appendResponse(nil, &resp)
		if bytes.Count(b, []byte("\n")) != 1 || b[len(b)-1] != '\n' || !json.Valid(b) {
			t.Fatalf("response is not one line of JSON: %q", b)
		}
	})
}
