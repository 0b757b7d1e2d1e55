package main

import (
	"sync"
	"sync/atomic"
	"time"

	"camelot/internal/wal"
)

// countingStore counts Append calls, each of which is one flush of
// the log device (FileStore syncs on every Append). It is the only
// instrumentation in the untraced run: one atomic add, no clock read.
//
// Both store wrappers implement wal.Store method by method rather
// than embedding the interface: if Store ever grows a method, the
// benchmark stops compiling instead of letting the new call reach the
// device uncounted.
type countingStore struct {
	inner   wal.Store
	appends *atomic.Int64 // shared across a site's incarnations
}

var _ wal.Store = (*countingStore)(nil)

func (s *countingStore) Append(block []byte) error {
	s.appends.Add(1)
	return s.inner.Append(block)
}
func (s *countingStore) Blocks() ([][]byte, error) { return s.inner.Blocks() }
func (s *countingStore) Truncate(n int) error      { return s.inner.Truncate(n) }
func (s *countingStore) DropTail(n int) error      { return s.inner.DropTail(n) }

// appendLog is what a site's timingStore accumulates while recording.
type appendLog struct {
	mu    sync.Mutex
	on    bool
	epoch time.Time
	site  int
	durs  []time.Duration
	bytes int64
	spans []span
}

// start begins recording, with span times relative to epoch.
func (l *appendLog) start(epoch time.Time) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.on, l.epoch = true, epoch
}

func (l *appendLog) stop() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.on = false
}

// timingStore is the traced run's store: the flush count plus the
// duration and size of every Append, and an unparented span for each
// (the log writer serves many transactions with one thread, so an
// append has no single transaction to hang from).
type timingStore struct {
	inner   wal.Store
	appends *atomic.Int64
	log     *appendLog
}

var _ wal.Store = (*timingStore)(nil)

func (s *timingStore) Append(block []byte) error {
	s.appends.Add(1)
	begin := time.Now()
	err := s.inner.Append(block)
	end := time.Now()
	l := s.log
	l.mu.Lock()
	if l.on {
		l.durs = append(l.durs, end.Sub(begin))
		l.bytes += int64(len(block))
		l.spans = append(l.spans, span{
			ID:   int64(numSessions+l.site+1)<<32 + int64(len(l.spans)+1), // sessions number theirs from (session+1)<<32
			Name: "wal.store_append", Site: l.site + 1,
			Start: begin.Sub(l.epoch).Nanoseconds(), End: end.Sub(l.epoch).Nanoseconds(),
		})
	}
	l.mu.Unlock()
	return err
}
func (s *timingStore) Blocks() ([][]byte, error) { return s.inner.Blocks() }
func (s *timingStore) Truncate(n int) error      { return s.inner.Truncate(n) }
func (s *timingStore) DropTail(n int) error      { return s.inner.DropTail(n) }
