package wal

import (
	"errors"
	"sync"
)

// ErrInjected is returned by a faulted store operation. The log treats
// it like any device failure: the force never acknowledges and the log
// fail-stops, which is exactly the §4 model — a site whose stable
// storage fails is a crashed site.
var ErrInjected = errors.New("wal: injected store fault")

// Damage is what an injected append fault leaves on the device. Every
// mode returns ErrInjected, so nothing in the faulted block was ever
// acknowledged durable.
type Damage uint8

const (
	// DamageCrash writes the whole block: durable, never acknowledged.
	DamageCrash Damage = iota
	// DamageTorn cuts the write inside the block's first record, so
	// nothing of the batch survives.
	DamageTorn
	// DamageTornLast cuts the write inside the block's last record, so
	// all but the last survive.
	DamageTornLast
	// DamageBitflip writes the whole block with one bit flipped inside
	// its middle record, so the records before it survive.
	DamageBitflip
	// DamageLost writes nothing: the block never reaches the device.
	DamageLost
)

// FaultStore wraps a Store, counting operations so a fault addresses
// "the k-th block write" — the k-th device write, one block carrying
// every record the write covered — or "the k-th truncation", and
// injecting it there. It holds one armed append fault and one armed
// truncate fault; the first to fire trips the store, and nothing fires
// after. Reads and DropTail always pass through: written sectors
// survive, and recovery's torn-tail repair must really repair.
//
// The simulator arms it per chaos point and crashes the site from the
// trip callback; the real node arms DamageLost under camelot-node
// -wal-fail-append, and the log's fail-stop is the crash.
type FaultStore struct {
	inner Store
	trip  func() // fires (once) when a fault injects; may be nil

	mu        sync.Mutex
	appends   int
	truncates int
	labels    []string // record types of each appended block
	appendAt  int      // index of the armed append fault; -1: none
	damage    Damage   // what the armed append fault leaves
	truncAt   int      // index of the armed truncate fault; -1: none
	tripped   bool
}

// NewFaultStore wraps inner; trip, if non-nil, is called exactly once,
// at the moment a fault injects. It runs on the thread that performed
// the store operation — implementations must only schedule work (e.g.
// rt.Runtime.After), not call back into the site synchronously.
func NewFaultStore(inner Store, trip func()) *FaultStore {
	return &FaultStore{inner: inner, trip: trip, appendAt: -1, truncAt: -1}
}

// ArmAppend injects d at the index-th Append (counted from zero).
func (s *FaultStore) ArmAppend(index int, d Damage) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.appendAt, s.damage = index, d
}

// ArmTruncate refuses the index-th Truncate (counted from zero); a
// refused truncation never reaches the device. The checkpoint image is
// already durable when the truncation is asked for, so a crash here
// leaves image and log overlapping — recovery must be idempotent about
// the overlap.
func (s *FaultStore) ArmTruncate(index int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.truncAt = index
}

// Disarm removes both armed faults.
func (s *FaultStore) Disarm() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.appendAt, s.truncAt = -1, -1
}

// Counts reports how many appends and truncates the store has seen.
func (s *FaultStore) Counts() (appends, truncates int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.appends, s.truncates
}

// Tripped reports whether an armed fault has injected.
func (s *FaultStore) Tripped() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tripped
}

// Labels returns the record types of every appended block
// ("UPDATE+PREPARE"), in order — the chaos pilot's force-point labels.
func (s *FaultStore) Labels() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.labels...)
}

// fires counts one operation against *count and reports whether a
// fault is armed at it (at), tripping the store if so. Called with
// s.mu held.
func (s *FaultStore) fires(at int, count *int) bool {
	k := *count
	*count++
	if k != at || s.tripped {
		return false
	}
	s.tripped = true
	return true
}

// Append counts the write and either passes it through or injects the
// armed fault, leaving its damage at the tail of the store.
func (s *FaultStore) Append(block []byte) error {
	s.mu.Lock()
	s.labels = append(s.labels, BlockType(block))
	fire, d := s.fires(s.appendAt, &s.appends), s.damage
	s.mu.Unlock()

	if !fire {
		return s.inner.Append(block)
	}
	if d != DamageLost {
		s.inner.Append(damage(block, d)) //nolint:errcheck // damage is the point; the ack is withheld regardless
	}
	return s.injected()
}

// damage returns what d leaves of block on the device.
func damage(block []byte, d Damage) []byte {
	// frame i spans bounds[i]..bounds[i+1].
	bounds := append([]int{0}, FrameEnds(block)...)
	n := len(bounds) - 1
	switch {
	case n == 0: // not a log block; no frame to aim at
	case d == DamageTorn:
		return block[:bounds[1]/2]
	case d == DamageTornLast:
		return block[:(bounds[n-1]+bounds[n])/2]
	case d == DamageBitflip:
		block = append([]byte(nil), block...)
		block[(bounds[n/2]+bounds[n/2+1])/2] ^= 0x01
	}
	return block
}

// Truncate counts the call and either passes it through or refuses it.
func (s *FaultStore) Truncate(n int) error {
	s.mu.Lock()
	fire := s.fires(s.truncAt, &s.truncates)
	s.mu.Unlock()

	if !fire {
		return s.inner.Truncate(n)
	}
	return s.injected()
}

func (s *FaultStore) injected() error {
	if s.trip != nil {
		s.trip()
	}
	return ErrInjected
}

// Blocks delegates to the wrapped store.
func (s *FaultStore) Blocks() ([][]byte, error) { return s.inner.Blocks() }

// DropTail delegates to the wrapped store.
func (s *FaultStore) DropTail(n int) error { return s.inner.DropTail(n) }
