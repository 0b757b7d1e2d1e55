package main

import (
	"errors"
	"fmt"
	"time"

	"camelot/camelot"
	"camelot/internal/ctl"
	"camelot/internal/oracle"
	"camelot/internal/wire"
)

// killMidCommit is the mid-commit kill's workload.Plan.CommitVia: it
// issues the commit on a separate goroutine and SIGKILLs the
// coordinator a moment later — with the commit protocol somewhere
// between the first prepare and the last ack. The client's view is
// Unknown unless the commit call won the race. witnesses are the remote
// participants.
func killMidCommit(coord *proc, witnesses []*proc, commit func() error) error {
	before := settleRecv(witnesses, time.Second)
	done := make(chan error, 1)
	go func() { done <- commit() }()
	waitCommitUnderway(witnesses, before, time.Second)
	coord.kill()
	return <-done
}

// recvCount reads a node's datagram-receive counter; errors read as
// zero, which only makes the callers wait out their caps.
func recvCount(p *proc) int {
	if s, err := p.client.TransportStats(); err == nil {
		return s.Recv
	}
	return 0
}

// settleRecv waits until every witness's datagram-receive counter
// stops moving (two consecutive reads a beat apart agree), then
// returns the settled counts. Gating the mid-commit kill on counter
// growth is only sound if stragglers from earlier transactions — lazy
// acks, retries — cannot supply the growth themselves.
func settleRecv(witnesses []*proc, cap time.Duration) []int {
	last := make([]int, len(witnesses))
	for i, w := range witnesses {
		last[i] = recvCount(w)
	}
	deadline := time.Now().Add(cap)
	for time.Now().Before(deadline) {
		time.Sleep(50 * time.Millisecond)
		stable := true
		for i, w := range witnesses {
			if n := recvCount(w); n != last[i] {
				last[i] = n
				stable = false
			}
		}
		if stable {
			break
		}
	}
	return last
}

// waitCommitUnderway polls the surviving participants' datagram-
// receive counters until the victim's commit fan-out observably
// reached every one of them (or the cap expires). Killing the
// coordinator before the prepares escape would leave the survivors
// active orphans of a transaction nobody can resolve until the
// coordinator returns — legitimate commitment semantics, but the
// survivors-resolve check is only meaningful once commitment actually
// began everywhere.
func waitCommitUnderway(witnesses []*proc, before []int, cap time.Duration) {
	deadline := time.Now().Add(cap)
	for time.Now().Before(deadline) {
		grown := true
		for i, w := range witnesses {
			if recvCount(w) <= before[i] {
				grown = false
				break
			}
		}
		if grown {
			return
		}
	}
}

// probeLockRetry runs a lock-reacquisition probe, retrying briefly on
// failure: the survivors resolve the orphaned transaction on their
// own timers, and under CPU load (a parallel test suite, a busy CI
// host) resolution can land moments after the kill settles. The
// coordinator stays down for the whole window, so a success on any
// attempt still demonstrates non-blocking resolution.
func probeLockRetry(probe func() error) error {
	deadline := time.Now().Add(3 * time.Second)
	for {
		err := probe()
		if err == nil || time.Now().After(deadline) {
			return err
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// errStillLocked marks a probe that could not take the key's lock, as
// opposed to one that could not run at all.
var errStillLocked = errors.New("still locked")

// survivorsResolved checks, while the killed coordinator is still
// down, what every surviving site made of its shard of the
// transaction. Each survivor's key is read under a throwaway
// transaction: a survivor still blocked on the dead coordinator holds
// the exclusive lock and fails the read, one that resolved answers with
// the key's presence under that same lock — nothing written, nothing
// for the probe's abort to undo. The resolved pieces must agree: all
// landed or none did. A blocked survivor is a violation under the
// non-blocking protocol and Paxos Commit, which promise there are none,
// and a note under two-phase commit, where a prepared subordinate is
// blocked by design.
func survivorsResolved(procs map[camelot.SiteID]*proc, tx oracle.Txn, protocol wire.Protocol) (violations, notes []string) {
	var mayBlock bool
	switch protocol {
	case wire.TwoPhase:
		mayBlock = true
	case wire.NonBlocking, wire.Paxos:
	}
	var first string // the first resolved survivor's piece, and whether it landed
	var firstPresent bool
	for _, w := range tx.Writes {
		p := procs[w.Site]
		if p.down {
			continue
		}
		var present bool
		err := probeLockRetry(func() error {
			pt, err := p.client.Begin()
			if err != nil {
				return fmt.Errorf("begin: %w", err)
			}
			defer p.client.Abort(pt) //nolint:errcheck // probe cleanup
			_, err = p.client.ReadKey(pt, w.Key)
			present = err == nil
			if err != nil && !errors.Is(err, ctl.ErrNoSuchKey) {
				return fmt.Errorf("%q %w: %v", w.Key, errStillLocked, err)
			}
			return nil
		})
		piece := fmt.Sprintf("site %d %q=%v", w.Site, w.Key, present)
		switch {
		case err != nil && mayBlock && errors.Is(err, errStillLocked):
			notes = append(notes, fmt.Sprintf("blocked, as %s is: site %d: %v with coordinator down", protocol, w.Site, err))
		case err != nil:
			violations = append(violations, fmt.Sprintf("non-blocking: site %d: %v with coordinator down", w.Site, err))
		case first == "":
			first, firstPresent = piece, present
		case present != firstPresent:
			violations = append(violations, "non-blocking: survivors' shards disagree with coordinator down: "+first+", "+piece)
		}
	}
	return violations, notes
}
