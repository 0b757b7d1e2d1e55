package wal

import (
	"errors"
	"fmt"
	"math"
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
// durability without demanding a device write. The log owns no writer
// thread: a forcing thread that finds the device idle issues the write
// itself, and forcers that arrive while it is busy wait for it and then
// share the next one (group commit, §3.5).
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
	writing  bool      // a device write is in flight
	closed   bool
	err      error // the device error that fail-stopped the log, if one did
}

// pending is a buffered record and its encoded size, computed once at
// Append for both the tracer and the device write's block.
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

// Force blocks until every record with LSN ≤ lsn is durable; an lsn
// past the end forces everything appended so far. This is the 15 ms
// primitive on the critical path of every update commit. A forcer that
// finds the device idle issues the write itself — with group commit it
// carries everything appended so far, without it the records up to lsn
// — and one that finds a write in flight waits for it.
func (l *Log) Force(lsn uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if lsn >= l.nextLSN {
		lsn = l.nextLSN - 1
	}
	for l.durable < lsn {
		if l.closed {
			return ErrClosed
		}
		if l.writing {
			l.cond.Wait()
			continue
		}
		target := lsn
		if l.cfg.GroupCommit {
			target = l.nextLSN - 1
		}
		if err := l.write(target); err != nil {
			return err
		}
	}
	return nil
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
// (never-forced) records are absent — exactly what a crash loses. A
// log reopened over a store that already holds records numbers its
// next append past the highest LSN read, so LSNs never repeat in the
// file.
//
// A block is one device write and may carry many records, each in its
// own length-prefixed, checksummed frame. A frame that fails its check
// is a torn tail only when one torn append can explain it: each append
// is one block in one write, followed by a sync, so only the last
// write can be torn, and a torn write leaves either the final block,
// or — when the file's new size reached the disk and its data did not
// — a run of zeros, which reads as blocks whose length prefix is zero.
// So the damage is a torn tail when its block is the last one, or its
// length prefix reads zero and no block after it decodes whole. Then
// no force that write served was acknowledged. The frames before the
// damage are kept — each is a whole, checksummed record, and a record
// nobody was promised is harmless (updates without an outcome are
// undone, a prepare nobody voted on is resolved by inquiry) — and
// everything from the damage on is dropped: the whole trailing run of
// blocks goes, and the damaged block's good prefix is re-appended as
// a block of its own, so later appends never sit behind the damage.
// Any other damage is in a block that was synced and acknowledged — a
// flipped bit in a length prefix misaligns every block after it, so
// that none decodes whole, but its own prefix does not read zero — so
// it is silent media corruption of acknowledged history, and recovery
// fails loudly with ErrCorrupt, writing nothing, rather than quietly
// dropping durable records.
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
		if i < len(blocks)-1 && (len(b) > 0 || decodesWhole(blocks[i+1:])) {
			lastGood := uint64(0)
			if len(out) > 0 {
				lastGood = out[len(out)-1].LSN
			}
			return nil, fmt.Errorf("%w: mid-log corruption in block %d (last good LSN %d): %v",
				ErrCorrupt, i, lastGood, recErr)
		}
		if err := l.store.DropTail(len(blocks) - i); err != nil {
			return nil, fmt.Errorf("wal: dropping torn tail: %w", err)
		}
		if good > 0 {
			if err := l.appendBlock(b[:good], len(recs), good-frameHeader*len(recs)); err != nil {
				return nil, fmt.Errorf("wal: rewriting torn tail's good prefix: %w", err)
			}
		}
		break
	}
	l.mu.Lock()
	for _, r := range out {
		l.nextLSN = max(l.nextLSN, r.LSN+1)
	}
	l.mu.Unlock()
	return out, nil
}

// decodesWhole reports whether any of blocks decodes whole.
func decodesWhole(blocks [][]byte) bool {
	for _, b := range blocks {
		if _, _, err := decodeBlock(b); err == nil {
			return true
		}
	}
	return false
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

// Close stops the flusher thread and fails all pending and future
// operations; a force whose device write is in flight fails when the
// write returns. It does not force buffered records: closing is a
// crash as far as durability is concerned, which is what the failure
// experiments need.
func (l *Log) Close() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return
	}
	l.closed = true
	l.cond.Broadcast()
}

// write makes the buffered records with LSN ≤ target durable with one
// device write. Called with l.mu held and no write in flight; the lock
// is released around the write itself so appends and new forces can
// accumulate — that accumulation is precisely what the next write
// harvests as group commit. A refused write fail-stops the log. It
// returns ErrClosed if the log was closed or fail-stopped by the time
// the write returned.
func (l *Log) write(target uint64) error {
	n, bytes := 0, 0
	for n < len(l.buffered) && l.buffered[n].rec.LSN <= target {
		bytes += l.buffered[n].size
		n++
	}
	batch := l.buffered[:n]
	l.writing = true
	l.mu.Unlock()
	if l.cfg.ForceLatency > 0 {
		l.r.Sleep(l.cfg.ForceLatency)
	}
	// One block per device write, sized exactly and dropped after the
	// write: a preload-sized batch must not stay pinned.
	block := make([]byte, 0, bytes+frameHeader*n)
	for _, p := range batch {
		block = appendFrame(block, p.rec, p.size)
	}
	err := l.appendBlock(block, n, bytes)
	l.mu.Lock()
	l.writing = false
	l.cond.Broadcast()
	if err != nil {
		l.err = err
		l.closed = true
	} else {
		l.buffered = l.buffered[n:]
		l.durable = target
	}
	if l.closed {
		return ErrClosed
	}
	return nil
}

// flusher periodically forces the log tail so lazy records become
// durable; this bounds how long a delayed commit-ack can wait. Only
// records that have aged a full interval are flushed, so the timer
// never races a transaction that is about to force its own tail —
// records on their way to an imminent force ride that force instead.
// The flusher forces like any other thread, and its ticks stay a fixed
// interval apart however long its write took.
func (l *Log) flusher() {
	for next := l.r.Now() + l.cfg.FlushInterval; ; next += l.cfg.FlushInterval {
		l.r.Sleep(next - l.r.Now())
		l.mu.Lock()
		closed := l.closed
		aged := len(l.buffered) > 0 && l.r.Now()-l.oldest >= l.cfg.FlushInterval
		l.mu.Unlock()
		if closed {
			return
		}
		if aged {
			l.cfg.Trace.LogFlush(l.cfg.Site)
			l.Force(math.MaxUint64) //nolint:errcheck // a failed write closed the log, which the next tick sees
		}
	}
}
