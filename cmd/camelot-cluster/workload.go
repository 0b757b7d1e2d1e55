package main

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"time"

	"camelot/camelot"
	"camelot/internal/ctl"
	"camelot/internal/oracle"
	"camelot/internal/shardmap"
	"camelot/internal/wire"
)

// protocolFor returns transaction i's commit protocol: the pinned one,
// else its turn in the cycle through every protocol, so an unpinned
// run exercises commitment under all of them.
func protocolFor(pinned string, i int) string {
	if pinned != "" {
		return pinned
	}
	cycle := wire.Protocols()
	return cycle[i%len(cycle)].String()
}

// plan is one workload transaction before it runs: what to write
// where, who coordinates, under which protocol. The planners below
// produce plans; executor.run is the only thing that drives one.
type plan struct {
	// tx carries the write set, each key at its home site. The
	// executor fills in Family and Outcome.
	tx oracle.Txn
	// read, when non-nil, adds a read-only participant: Key is read at
	// Site if that site is not already a writer, so its prepare answers
	// with the read-only vote and drops out of phase two.
	read     *oracle.Write
	coord    camelot.SiteID
	protocol string
	// commitVia, when non-nil, is handed the commit call instead of it
	// being made directly — the mid-commit kill runs it on a goroutine
	// and SIGKILLs the coordinator underneath it.
	commitVia func(commit func() error) error
}

// planAcross plans transaction i as one fresh key at each of the given
// sites (those the map places no shard on drop out of the write set),
// coordinated by coord: the widest transaction the sites allow. The
// mid-commit kill aims it at every placed site; the netem storm at
// every site it can currently reach.
func planAcross(i int, m *shardmap.Map, sites []camelot.SiteID, coord camelot.SiteID, protocol string) plan {
	writes := []oracle.Write{} // non-nil: the oracle's write-set rule applies even when empty
	for j, id := range sites {
		key, err := m.KeyAt(fmt.Sprintf("t%04d.x%d", i, j), id)
		if err != nil {
			continue
		}
		writes = append(writes, oracle.Write{Key: key, Site: id})
	}
	return plan{tx: oracle.Txn{Writes: writes}, coord: coord, protocol: protocol}
}

// planMix draws transaction i of the seeded mix: a key set drawn
// uniformly over the placed sites (deliberately straddling shards on
// distinct sites most of the time), sometimes one of eight shared hot
// keys (the skew), sometimes a read-only participant reading an
// earlier transaction's first key at its home site. The coordinator is
// the first key's home: always a participant, so the commit instance
// never needs a site outside the write set. Every draw happens here,
// before anything consults liveness, so a seed names one workload
// regardless of timing.
func planMix(rng *rand.Rand, i int, m *shardmap.Map, earlier []oracle.Txn, protocol string) plan {
	placed := m.Sites()
	nTargets := 1
	if len(placed) > 1 && rng.Float64() < 0.75 {
		nTargets = 2 + rng.Intn(len(placed)-1) // cross-shard, usually
	}
	perm := rng.Perm(len(placed))
	withHot := rng.Float64() < 0.35
	hotPick := rng.Intn(8)
	withReader := rng.Float64() < 0.3

	targets := make([]camelot.SiteID, nTargets)
	for j := range targets {
		targets[j] = placed[perm[j]]
	}
	p := planAcross(i, m, targets, 0, protocol)
	if hot := fmt.Sprintf("hot%d", hotPick); withHot && m.SiteOf(hot) != 0 {
		p.tx.Writes = append(p.tx.Writes, oracle.Write{Key: hot, Site: m.SiteOf(hot), Shared: true})
	}
	if len(p.tx.Writes) > 0 {
		p.coord = p.tx.Writes[0].Site
	}
	if withReader && i > 0 && len(earlier[i/2].Writes) > 0 {
		first := earlier[i/2].Writes[0]
		p.read = &oracle.Write{Key: first.Key, Site: first.Site}
	}
	return p
}

// executor drives planned transactions over the control plane. Its run
// method is the only code in this command that issues a workload
// transaction's Begin, WriteKey, ReadKey, AddSites and CommitWith.
type executor struct {
	// client returns a usable control client for the site, or nil
	// while the site is down, frozen or unreachable.
	client func(camelot.SiteID) *ctl.Client
	// unavailable counts calls that hit their deadline — the typed
	// ErrUnavailable verdicts, each one a hang that didn't happen.
	unavailable int
	// readOnlyCommitted counts committed transactions that carried a
	// read-only participant.
	readOnlyCommitted int
}

func (e *executor) note(err error) {
	if errors.Is(err, ctl.ErrUnavailable) {
		e.unavailable++
	}
}

// run drives one planned transaction and returns the oracle's record
// of it: Skipped if it never began, Aborted if its write set could not
// be completed (an unreachable site, a refused write) and the abort
// went through, otherwise whatever the commit call reported — Unknown
// when it reported nothing definite. Under per-call deadlines a frozen
// or dead node costs bounded time, never a hang.
func (e *executor) run(p plan) oracle.Txn {
	tx := p.tx
	tx.Outcome = oracle.Skipped
	if len(tx.Writes) == 0 {
		return tx
	}
	cc := e.client(p.coord)
	if cc == nil {
		return tx
	}
	t, err := cc.Begin()
	if err != nil {
		e.note(err)
		return tx
	}
	tx.Family = t.Family

	joined := map[camelot.SiteID]bool{}
	complete := true
	for _, w := range tx.Writes {
		c := e.client(w.Site)
		if c == nil {
			complete = false
			break
		}
		if err := c.WriteKey(t, w.Key, []byte(fmt.Sprintf("v@%d", w.Site))); err != nil {
			e.note(err)
			complete = false
			break
		}
		joined[w.Site] = true
	}
	readOnly := false
	if r := p.read; complete && r != nil && !joined[r.Site] {
		// A read that fails (its key still locked by an in-doubt
		// writer, say) just leaves the transaction without the reader.
		if c := e.client(r.Site); c != nil {
			if _, err := c.ReadKey(t, r.Key); err == nil {
				joined[r.Site] = true
				readOnly = true
			}
		}
	}
	if complete {
		var remote []camelot.SiteID
		for id := range joined {
			if id != p.coord {
				remote = append(remote, id)
			}
		}
		slices.Sort(remote)
		if len(remote) > 0 {
			if err := cc.AddSites(t, remote); err != nil {
				e.note(err)
				complete = false
			}
		}
	}
	if !complete {
		// Commit is never issued, so the transaction cannot commit;
		// but only an abort that went through lets the client say so.
		tx.Outcome = oracle.Unknown
		if cc := e.client(p.coord); cc != nil {
			if err := cc.Abort(t); err == nil {
				tx.Outcome = oracle.Aborted
			} else {
				e.note(err)
			}
		}
		return tx
	}

	commit := func() error {
		_, err := cc.CommitWith(t, p.protocol)
		return err
	}
	if p.commitVia != nil {
		err = p.commitVia(commit)
	} else {
		err = commit()
	}
	switch {
	case err == nil:
		tx.Outcome = oracle.Committed
		if readOnly {
			e.readOnlyCommitted++
		}
	case errors.Is(err, ctl.ErrAborted):
		tx.Outcome = oracle.Aborted
	default:
		e.note(err)
		tx.Outcome = oracle.Unknown
	}
	return tx
}

// killMidCommit returns a plan.commitVia that issues the commit on a
// separate goroutine and SIGKILLs the coordinator a moment later —
// with the commit protocol somewhere between the first prepare and the
// last ack. The client's view is Unknown unless the commit call won
// the race. witnesses are the remote participants.
func killMidCommit(coord *proc, witnesses []*proc) func(commit func() error) error {
	return func(commit func() error) error {
		before := settleRecv(witnesses, time.Second)
		done := make(chan error, 1)
		go func() { done <- commit() }()
		waitCommitUnderway(witnesses, before, time.Second)
		coord.kill()
		return <-done
	}
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

// survivorsResolved checks, while the killed coordinator is still
// down, that every surviving site resolved its shard of the
// transaction: the survivor's own key must be re-lockable (a blocked
// protocol would leak the lock) and the survivors' pieces of the
// write set must agree — all landed or none did. Violations are
// returned as strings for the report.
func survivorsResolved(procs map[camelot.SiteID]*proc, tx oracle.Txn) []string {
	var out []string
	type piece struct {
		site    camelot.SiteID
		key     string
		present bool
	}
	var pieces []piece
	for _, w := range tx.Writes {
		p := procs[w.Site]
		if p.down {
			continue
		}
		// Re-acquire the transaction's own lock under a throwaway
		// transaction: if the commit protocol is blocked on the dead
		// coordinator, this write blocks too.
		if err := probeLockRetry(func() error {
			pt, err := p.client.Begin()
			if err != nil {
				return fmt.Errorf("begin: %w", err)
			}
			defer p.client.Abort(pt) //nolint:errcheck // probe cleanup
			if err := p.client.WriteKey(pt, w.Key, []byte("probe")); err != nil {
				return fmt.Errorf("%q still locked: %w", w.Key, err)
			}
			return nil
		}); err != nil {
			out = append(out, fmt.Sprintf("non-blocking: site %d: %v with coordinator down", w.Site, err))
		}
		_, ok, err := p.client.PeekKey(w.Key)
		if err != nil {
			out = append(out, fmt.Sprintf("non-blocking: site %d: peek %q: %v", w.Site, w.Key, err))
			continue
		}
		pieces = append(pieces, piece{site: w.Site, key: w.Key, present: ok})
	}
	if len(pieces) == 0 {
		return out
	}
	for _, p := range pieces[1:] {
		if p.present != pieces[0].present {
			out = append(out, fmt.Sprintf("non-blocking: survivors' shards disagree with coordinator down: site %d %q=%v, site %d %q=%v",
				pieces[0].site, pieces[0].key, pieces[0].present, p.site, p.key, p.present))
		}
	}
	return out
}
