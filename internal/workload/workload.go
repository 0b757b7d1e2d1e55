// Package workload is the one place a keyspace workload transaction is
// planned and the one place it is driven over the control plane: Plan
// is what to write where, who coordinates and under which protocol;
// Across and Mix are the two planners; Executor.Run is the only code
// that issues a workload transaction's Begin, WriteKey, ReadKey,
// AddSites and CommitWith over ctl. The process-cluster driver
// (cmd/camelot-cluster), the open-loop load generator (internal/load)
// and the chaos explorer's sharded workload all plan through it, so one
// transaction shape runs under every configuration and protocol — the
// property that makes their numbers comparable (paper §4.2).
//
// The chaos explorer takes its plans from here but keeps its own loop
// on purpose. It drives a simulated cluster through camelot.Tx — one
// client handle whose writes CommMan routes — with a Begin retry across
// a coordinator's restart, periodic checkpoints and virtual-time
// sleeps, and its named-server workload has no shard map at all. That
// client API shares nothing with per-site control calls but the
// eight-line switch from a commit error to an oracle outcome, and an
// interface spanning both would be a layer both callers must see
// through.
package workload

import (
	"errors"
	"fmt"
	"math/rand"
	"strconv"

	"camelot/internal/ctl"
	"camelot/internal/det"
	"camelot/internal/oracle"
	"camelot/internal/shardmap"
	"camelot/internal/tid"
	"camelot/internal/wire"
)

// Plan is one workload transaction before it runs.
type Plan struct {
	// Tx carries the write set, each key at its home site. The
	// executor fills in Family and Outcome.
	Tx oracle.Txn
	// Read, when non-nil, adds a read-only participant: Key is read at
	// Site if that site is not already a writer, so its prepare answers
	// with the read-only vote and drops out of phase two.
	Read     *oracle.Write
	Coord    tid.SiteID
	Protocol wire.Protocol
	// CommitVia, when non-nil, is handed the commit call instead of it
	// being made directly — the mid-commit kill runs it on a goroutine
	// and SIGKILLs the coordinator underneath it.
	CommitVia func(commit func() error) error
}

// Across plans one fresh key under prefix at each of the given sites
// (those the map places no shard on drop out of the write set),
// coordinated by coord: the widest transaction the sites allow. The
// mid-commit kill and the chaos explorer aim it at every placed site,
// the netem storm at every site it can currently reach, the load
// generator at a coordinator and its neighbour.
func Across(prefix string, m *shardmap.Map, sites []tid.SiteID, coord tid.SiteID, protocol wire.Protocol) Plan {
	writes := []oracle.Write{} // non-nil: the oracle's write-set rule applies even when empty
	for j, id := range sites {
		key, err := m.KeyAt(prefix+".x"+strconv.Itoa(j), id)
		if err != nil {
			continue
		}
		writes = append(writes, oracle.Write{Key: key, Site: id})
	}
	return Plan{Tx: oracle.Txn{Writes: writes}, Coord: coord, Protocol: protocol}
}

// AddShared appends key to the write set at its home site, marked as
// one other workload transactions also write (a hot key, the skew) —
// if the map places it anywhere.
func (p *Plan) AddShared(m *shardmap.Map, key string) {
	if home := m.SiteOf(key); home != 0 {
		p.Tx.Writes = append(p.Tx.Writes, oracle.Write{Key: key, Site: home, Shared: true})
	}
}

// Mix draws transaction i of the seeded mix: a key set drawn uniformly
// over the placed sites (deliberately straddling shards on distinct
// sites most of the time), sometimes one of eight shared hot keys,
// sometimes a read-only participant reading an earlier transaction's
// first key at its home site. The coordinator is the first key's home:
// always a participant, so the commit instance never needs a site
// outside the write set. Every draw happens here, before anything
// consults liveness, so a seed names one workload regardless of timing.
func Mix(rng *rand.Rand, i int, m *shardmap.Map, earlier []oracle.Txn, protocol wire.Protocol) Plan {
	placed := m.Sites()
	nTargets := 1
	if len(placed) > 1 && rng.Float64() < 0.75 {
		nTargets = 2 + rng.Intn(len(placed)-1) // cross-shard, usually
	}
	perm := rng.Perm(len(placed))
	withHot := rng.Float64() < 0.35
	hotPick := rng.Intn(8)
	withReader := rng.Float64() < 0.3

	targets := make([]tid.SiteID, nTargets)
	for j := range targets {
		targets[j] = placed[perm[j]]
	}
	p := Across(fmt.Sprintf("t%04d", i), m, targets, 0, protocol)
	if withHot {
		p.AddShared(m, fmt.Sprintf("hot%d", hotPick))
	}
	if len(p.Tx.Writes) > 0 {
		p.Coord = p.Tx.Writes[0].Site
	}
	if withReader && i > 0 && len(earlier[i/2].Writes) > 0 {
		first := earlier[i/2].Writes[0]
		p.Read = &oracle.Write{Key: first.Key, Site: first.Site}
	}
	return p
}

// Executor drives planned transactions over the control plane. The
// counters make one Executor one caller's: concurrent sessions each
// use their own.
type Executor struct {
	// Client returns a usable control client for the site, or nil
	// while the site is down, frozen or unreachable.
	Client func(tid.SiteID) *ctl.Client
	// Unavailable counts calls that hit their deadline — the typed
	// ErrUnavailable verdicts, each one a hang that didn't happen.
	Unavailable int
	// ReadOnlyCommitted counts committed transactions that carried a
	// read-only participant.
	ReadOnlyCommitted int
}

// note counts err if a deadline caused it, and returns it.
func (e *Executor) note(err error) error {
	if errors.Is(err, ctl.ErrUnavailable) {
		e.Unavailable++
	}
	return err
}

func unreachable(id tid.SiteID) error {
	return fmt.Errorf("workload: site %d: no control client: %w", id, ctl.ErrUnavailable)
}

// Run drives one planned transaction and returns the oracle's record
// of it: Skipped if it never began, Aborted if its write set could not
// be completed (an unreachable site, a refused write) and the abort
// went through, otherwise whatever the commit call reported — Unknown
// when it reported nothing definite. The error is what cut the
// transaction short; it is nil exactly when the protocol answered,
// commit or abort. Under per-call deadlines a frozen or dead node costs
// bounded time, never a hang.
func (e *Executor) Run(p Plan) (oracle.Txn, error) {
	tx := p.Tx
	tx.Outcome = oracle.Skipped
	if len(tx.Writes) == 0 {
		return tx, errors.New("workload: empty write set")
	}
	cc := e.Client(p.Coord)
	if cc == nil {
		return tx, unreachable(p.Coord)
	}
	t, err := cc.Begin()
	if err != nil {
		return tx, e.note(err)
	}
	tx.Family = t.Family

	joined := map[tid.SiteID]bool{}
	var cut error
	for _, w := range tx.Writes {
		c := e.Client(w.Site)
		if c == nil {
			cut = unreachable(w.Site)
			break
		}
		if err := c.WriteKey(t, w.Key, []byte("v@"+strconv.Itoa(int(w.Site)))); err != nil {
			cut = e.note(err)
			break
		}
		joined[w.Site] = true
	}
	readOnly := false
	if r := p.Read; cut == nil && r != nil && !joined[r.Site] {
		// A read that fails (its key still locked by an in-doubt
		// writer, say) just leaves the transaction without the reader.
		if c := e.Client(r.Site); c != nil {
			if _, err := c.ReadKey(t, r.Key); err == nil {
				joined[r.Site] = true
				readOnly = true
			}
		}
	}
	if cut == nil {
		delete(joined, p.Coord)
		if remote := det.SortedKeys(joined); len(remote) > 0 {
			if err := cc.AddSites(t, remote); err != nil {
				cut = e.note(err)
			}
		}
	}
	if cut != nil {
		// Commit is never issued, so the transaction cannot commit;
		// but only an abort that went through lets the client say so.
		tx.Outcome = oracle.Unknown
		if cc := e.Client(p.Coord); cc != nil {
			if err := cc.Abort(t); err == nil {
				tx.Outcome = oracle.Aborted
			} else {
				e.note(err)
			}
		}
		return tx, cut
	}

	commit := func() error {
		_, err := cc.CommitWith(t, p.Protocol.String())
		return err
	}
	if p.CommitVia != nil {
		err = p.CommitVia(commit)
	} else {
		err = commit()
	}
	switch {
	case err == nil:
		tx.Outcome = oracle.Committed
		if readOnly {
			e.ReadOnlyCommitted++
		}
	case errors.Is(err, ctl.ErrAborted):
		tx.Outcome = oracle.Aborted
		err = nil
	default:
		e.note(err)
		tx.Outcome = oracle.Unknown
	}
	return tx, err
}
