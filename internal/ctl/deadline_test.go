package ctl

import (
	"bufio"
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"
)

// silentThenServing listens on loopback; its first connection reads
// requests and never answers (a frozen node), while every later
// connection answers pings — the shape of a SIGSTOPped process that
// was since SIGCONTed or restarted.
func silentThenServing(t *testing.T) (addr string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() }) //nolint:errcheck // test teardown
	var conns atomic.Int64
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			frozen := conns.Add(1) == 1
			go func() {
				defer conn.Close() //nolint:errcheck // test server
				sc := bufio.NewScanner(conn)
				for sc.Scan() {
					if frozen {
						continue // swallow the request; never answer
					}
					if _, err := conn.Write([]byte(`{"ok":true,"site":7}` + "\n")); err != nil {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String()
}

// TestDeadlineBoundsFrozenNode is the regression test for the
// control plane's worst gray failure: a node that accepts the
// connection and then never produces a byte (SIGSTOP, wedged event
// loop). The client must return a typed ErrUnavailable within the
// deadline — not hang — and subsequent calls must fail fast without
// waiting out another timeout.
func TestDeadlineBoundsFrozenNode(t *testing.T) {
	addr := silentThenServing(t)
	c, err := DialTimeout(addr, 150*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close() //nolint:errcheck // test teardown

	start := time.Now()
	_, err = c.Ping()
	elapsed := time.Since(start)
	if !errors.Is(err, ErrUnavailable) {
		t.Fatalf("Ping against frozen node = %v, want ErrUnavailable", err)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("timeout took %v, want bounded by the 150ms deadline", elapsed)
	}

	// The connection is poisoned: the next call fails immediately,
	// without burning another deadline.
	start = time.Now()
	if _, err := c.Ping(); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("Ping after poison = %v, want ErrUnavailable", err)
	}
	if fast := time.Since(start); fast > 50*time.Millisecond {
		t.Fatalf("poisoned call took %v, want immediate", fast)
	}

	// Once the node is back, Reconnect recovers the client.
	if err := c.Reconnect(); err != nil {
		t.Fatalf("Reconnect: %v", err)
	}
	site, err := c.Ping()
	if err != nil {
		t.Fatalf("Ping after Reconnect: %v", err)
	}
	if site != 7 {
		t.Fatalf("site = %d, want 7", site)
	}
}
