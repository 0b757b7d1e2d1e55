package wal

import (
	"errors"
	"fmt"
	"sync"
)

// ErrDiskFailed is the sticky error a FailStore returns once its
// programmed failure point is reached.
var ErrDiskFailed = errors.New("wal: stable store failed")

// FailStore wraps a Store with a programmed write failure: the
// FailAfter-th Append (counted from zero) — the log's FailAfter-th
// device write, a block carrying every record one force or flush
// covered — and every mutating call after it return ErrDiskFailed: a
// disk dying mid-run. Reads keep
// working, matching a device whose written sectors survive, so
// recovery tooling can still inspect what made it to the platter. The
// Log reacts to a failed append by fail-stopping (closing), which is
// exactly the §4 model: a site whose stable storage is gone is a
// crashed site.
//
// The real fault driver installs it under camelot-node's
// -wal-fail-append flag; the simulation's analog is the chaos
// FaultStore.
type FailStore struct {
	inner Store

	mu       sync.Mutex
	appends  int
	failAt   int
	dead     bool
	deadline bool // failAt armed
}

// NewFailStore wraps inner so that the failAfter-th Append (device
// write) fails.
// Negative failAfter never fails (a transparent wrapper).
func NewFailStore(inner Store, failAfter int) *FailStore {
	return &FailStore{inner: inner, failAt: failAfter, deadline: failAfter >= 0}
}

// Append forwards to the inner store until the programmed failure
// point, then fails this and every later mutating call.
func (s *FailStore) Append(block []byte) error {
	s.mu.Lock()
	if s.dead || (s.deadline && s.appends >= s.failAt) {
		s.dead = true
		n := s.appends
		s.mu.Unlock()
		return fmt.Errorf("%w: append %d", ErrDiskFailed, n)
	}
	s.appends++
	s.mu.Unlock()
	return s.inner.Append(block)
}

// Blocks reads through: written sectors survive the device's death.
func (s *FailStore) Blocks() ([][]byte, error) { return s.inner.Blocks() }

// Truncate fails once the device is dead; otherwise forwards.
func (s *FailStore) Truncate(n int) error {
	if err := s.check("truncate"); err != nil {
		return err
	}
	return s.inner.Truncate(n)
}

// DropTail fails once the device is dead; otherwise forwards.
func (s *FailStore) DropTail(n int) error {
	if err := s.check("droptail"); err != nil {
		return err
	}
	return s.inner.DropTail(n)
}

func (s *FailStore) check(op string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dead {
		return fmt.Errorf("%w: %s", ErrDiskFailed, op)
	}
	return nil
}

// Failed reports whether the programmed failure has fired.
func (s *FailStore) Failed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dead
}

// FailStore must satisfy Store.
var _ Store = (*FailStore)(nil)
