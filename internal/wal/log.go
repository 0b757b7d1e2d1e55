package wal

import (
	"errors"
	"fmt"
	"time"

	"camelot/internal/rt"
	"camelot/internal/tid"
	"camelot/internal/trace"
)

// ErrClosed is returned by log operations after Close or a simulated
// crash.
var ErrClosed = errors.New("wal: log closed")

// Config controls the logger's batching and timing.
type Config struct {
	// GroupCommit enables log batching: one device write satisfies
	// every force request pending when the write is issued, and also
	// carries any records appended since (§3.5). With it disabled,
	// each force request issues its own device write, modeling a
	// system that does one synchronous I/O per committing
	// transaction. Either way a device write is exactly one
	// Store.Append: every record it covers travels in one block.
	GroupCommit bool
	// ForceLatency is the device-write time. The paper charges 15 ms
	// per log force (Table 2); a raw disk track write was 26.8 ms
	// (Table 1).
	ForceLatency time.Duration
	// FlushInterval, if positive, periodically forces the tail of the
	// log so lazily written records (e.g. a subordinate's non-forced
	// commit record under the delayed-commit optimization) become
	// durable without an explicit force.
	FlushInterval time.Duration
	// Site identifies this log's site in the ledger and trace events.
	Site tid.SiteID
	// Trace is the ledger the log counts its appends and device writes
	// into, and the timeline its flushes go to if it keeps one; nil
	// builds a counters-only collector of the log's own.
	Trace *trace.Collector
}

// Log is one site's stable-storage log. Appends are buffered; Force
// makes everything up to an LSN durable; WaitDurable observes
// durability without demanding a device write. A single writer
// thread owns the device, which is where group commit happens.
type Log struct {
	r     rt.Runtime
	store Store
	cfg   Config

	mu   rt.Mutex
	cond rt.Cond

	buffered []pending // appended, not yet durable, ascending LSN
	oldest   rt.Time   // append time of buffered[0]
	nextLSN  uint64    // next LSN to assign
	durable  uint64    // highest durable LSN
	reqs     []uint64  // pending force targets, FIFO
	closed   bool
	err      error // the device error that fail-stopped the log, if one did
}

// pending is a buffered record and its encoded size, computed once at
// Append for both the tracer and the writer's batch buffer.
type pending struct {
	rec  *Record
	size int
}

// Open starts a log over store. Call Close when done.
func Open(r rt.Runtime, store Store, cfg Config) *Log {
	if cfg.Trace == nil {
		cfg.Trace = trace.NewCounters()
	}
	l := &Log{r: r, store: store, cfg: cfg, nextLSN: 1}
	l.mu = r.NewMutex()
	l.cond = r.NewCond(l.mu)
	r.Go("wal-writer", l.writer)
	if cfg.FlushInterval > 0 {
		r.Go("wal-flusher", l.flusher)
	}
	return l
}

// Append buffers rec and assigns its LSN. The record is not durable
// until a force or flush covers it ("this record is logged as late as
// possible", Figure 1 step 5).
func (l *Log) Append(rec *Record) (uint64, error) {
	size := encodedSize(rec) // the LSN is fixed-width, so this can precede its assignment
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	rec.LSN = l.nextLSN
	l.nextLSN++
	if len(l.buffered) == 0 {
		l.oldest = l.r.Now()
	}
	l.buffered = append(l.buffered, pending{rec, size})
	l.cfg.Trace.LogAppend(l.cfg.Site, rec.TID, rec.Type.String(), size)
	return rec.LSN, nil
}

// Force blocks until every record with LSN ≤ lsn is durable, issuing
// a device write if needed. This is the 15 ms primitive on the
// critical path of every update commit.
func (l *Log) Force(lsn uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if lsn >= l.nextLSN {
		lsn = l.nextLSN - 1
	}
	if lsn <= l.durable {
		return nil
	}
	if l.closed {
		return ErrClosed
	}
	l.reqs = append(l.reqs, lsn)
	l.cond.Broadcast()
	for l.durable < lsn {
		if l.closed {
			return ErrClosed
		}
		l.cond.Wait()
	}
	return nil
}

// ForceAll forces everything appended so far.
func (l *Log) ForceAll() error {
	l.mu.Lock()
	lsn := l.nextLSN - 1
	l.mu.Unlock()
	return l.Force(lsn)
}

// WaitDurable blocks until every record with LSN ≤ lsn is durable but
// does not demand a device write: durability arrives via someone
// else's force or the background flusher. The optimized commit
// protocol uses this to delay the commit-ack until the subordinate's
// lazy commit record is stable (§3.2).
func (l *Log) WaitDurable(lsn uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if lsn >= l.nextLSN {
		lsn = l.nextLSN - 1
	}
	for l.durable < lsn {
		if l.closed {
			return ErrClosed
		}
		l.cond.Wait()
	}
	return nil
}

// Durable returns the highest durable LSN.
func (l *Log) Durable() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.durable
}

// DeviceWrites reports how many blocks the log has made durable: the
// number of Store.Append calls that returned nil, which on a FileStore
// is the number of fsyncs. It is the denominator of every throughput
// analysis in the paper. It is a view over the site's ledger.
func (l *Log) DeviceWrites() int { return l.cfg.Trace.Site(l.cfg.Site).DeviceWrites }

// Err reports the device error that fail-stopped the log — a refused
// Store.Append — or nil for a log that is healthy or was closed by its
// owner.
func (l *Log) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}

// appendBlock is the log's only path to Store.Append, so the ledger's
// device writes count what the device accepted and nothing else. The
// block carries records whose encodings total bytes; the ledger counts
// record bytes, not framing, so its numbers do not depend on how
// records were grouped.
func (l *Log) appendBlock(b []byte, records, bytes int) error {
	if err := l.store.Append(b); err != nil {
		return err
	}
	l.cfg.Trace.DeviceWrite(l.cfg.Site, records, bytes)
	return nil
}

// Appends reports how many records have been appended: a view over
// the site's ledger.
func (l *Log) Appends() int { return l.cfg.Trace.Site(l.cfg.Site).LogAppends }

// Records reads back every durable record, in LSN order. Buffered
// (never-forced) records are absent — exactly what a crash loses.
//
// A block is one device write and may carry many records, each in its
// own length-prefixed, checksummed frame. A frame that fails its check
// is classified by the position of its block. In the *final* block it
// is a torn tail: the write was in flight when the site died, so no
// force it served was acknowledged. The frames before the damage are
// kept — each is a whole, checksummed record, and a record nobody was
// promised is harmless (updates without an outcome are undone, a
// prepare nobody voted on is resolved by inquiry) — and everything
// from the damage on is dropped. The store is repaired in place, so
// later appends never sit behind the damage. A bad frame in a block
// with good blocks *after* it cannot be a torn write — an append-only
// log never writes behind its tail — so it is silent media corruption
// of acknowledged history, and recovery must fail loudly with
// ErrCorrupt rather than quietly dropping durable records.
func (l *Log) Records() ([]*Record, error) {
	blocks, err := l.store.Blocks()
	if err != nil {
		return nil, err
	}
	out := make([]*Record, 0, len(blocks))
	for i, b := range blocks {
		recs, good, recErr := decodeBlock(b)
		out = append(out, recs...)
		if recErr == nil {
			continue
		}
		if i < len(blocks)-1 {
			lastGood := uint64(0)
			if len(out) > 0 {
				lastGood = out[len(out)-1].LSN
			}
			return nil, fmt.Errorf("%w: mid-log corruption in block %d (last good LSN %d): %v",
				ErrCorrupt, i, lastGood, recErr)
		}
		if err := l.store.DropTail(1); err != nil {
			return nil, fmt.Errorf("wal: dropping torn tail: %w", err)
		}
		if good > 0 {
			if err := l.appendBlock(b[:good], len(recs), good-frameHeader*len(recs)); err != nil {
				return nil, fmt.Errorf("wal: rewriting torn tail's good prefix: %w", err)
			}
		}
	}
	return out, nil
}

// Truncate drops durable records from the front of the log; the disk
// manager calls it after a checkpoint has absorbed them into the page
// image. The store drops whole blocks only, so a cut that lands inside
// a block is rounded down: Truncate drops the longest whole-block
// prefix holding at most n records and returns how many records that
// was. Keeping more than asked is safe — replaying a record the image
// already absorbed is idempotent.
func (l *Log) Truncate(n int) (int, error) {
	blocks, err := l.store.Blocks()
	if err != nil {
		return 0, err
	}
	dropped, whole := 0, 0
	for _, b := range blocks {
		frames := len(FrameEnds(b))
		if dropped+frames > n {
			break
		}
		dropped += frames
		whole++
	}
	if whole == 0 {
		return 0, nil
	}
	if err := l.store.Truncate(whole); err != nil {
		return 0, err
	}
	return dropped, nil
}

// Close stops the writer and flusher threads and fails all pending
// and future operations. It does not force buffered records: closing
// is a crash as far as durability is concerned, which is what the
// failure experiments need.
func (l *Log) Close() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return
	}
	l.closed = true
	l.cond.Broadcast()
}

// writer is the single thread that owns the log device.
func (l *Log) writer() {
	l.mu.Lock()
	defer l.mu.Unlock()
	for {
		for len(l.reqs) == 0 && !l.closed {
			l.cond.Wait()
		}
		if l.closed {
			return
		}
		var target uint64
		if l.cfg.GroupCommit {
			// Group commit: one write covers every pending request
			// and everything appended so far.
			target = l.nextLSN - 1
			l.reqs = l.reqs[:0]
		} else {
			target = l.reqs[0]
			l.reqs = l.reqs[1:]
		}
		if target <= l.durable {
			continue // an earlier write already covered this request
		}
		// Collect the batch: buffered records with LSN ≤ target.
		n, bytes := 0, 0
		for n < len(l.buffered) && l.buffered[n].rec.LSN <= target {
			bytes += l.buffered[n].size
			n++
		}
		batch := l.buffered[:n]

		// The device write happens outside the lock so appends and
		// new force requests can accumulate — that accumulation is
		// precisely what group commit harvests.
		l.mu.Unlock()
		if l.cfg.ForceLatency > 0 {
			l.r.Sleep(l.cfg.ForceLatency)
		}
		// One block per device write, sized exactly and dropped after
		// the write: a preload-sized batch must not stay pinned.
		block := make([]byte, 0, bytes+frameHeader*n)
		for _, p := range batch {
			block = appendFrame(block, p.rec, p.size)
		}
		err := l.appendBlock(block, n, bytes)
		l.mu.Lock()
		if err != nil {
			l.err = err
			l.closed = true
			l.cond.Broadcast()
			return
		}
		l.buffered = l.buffered[n:]
		if target > l.durable {
			l.durable = target
		}
		l.cond.Broadcast()
	}
}

// flusher periodically forces the log tail so lazy records become
// durable; this bounds how long a delayed commit-ack can wait. Only
// records that have aged a full interval are flushed, so the timer
// never races a transaction that is about to force its own tail —
// records on their way to an imminent force ride that force instead.
func (l *Log) flusher() {
	for {
		l.r.Sleep(l.cfg.FlushInterval)
		l.mu.Lock()
		if l.closed {
			l.mu.Unlock()
			return
		}
		if len(l.buffered) > 0 && l.r.Now()-l.oldest >= l.cfg.FlushInterval {
			l.cfg.Trace.LogFlush(l.cfg.Site)
			l.reqs = append(l.reqs, l.nextLSN-1)
			l.cond.Broadcast()
		}
		l.mu.Unlock()
	}
}
