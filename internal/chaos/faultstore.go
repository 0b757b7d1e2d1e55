package chaos

import (
	"errors"
	"sync"

	"camelot/internal/wal"
)

// ErrInjected is returned by a faulted store operation; the log
// treats it like any device failure (the force never acknowledges and
// the log fail-stops), which is exactly the guarantee a real crash
// provides.
var ErrInjected = errors.New("chaos: injected fault")

// storeFault addresses one operation of a FaultStore by index.
type storeFault struct {
	index int
	mode  string
}

// FaultStore wraps one site's wal.Store, counting operations so a
// Fault's Index addresses "the k-th block write at this site" — the
// k-th device write, one block carrying every record the write
// covered — and injecting the fault there. Every injected append fault
// leaves the damage at the *tail* of the store and returns
// ErrInjected, so the force is never acknowledged — nothing in the
// damaged block was, by construction, ever promised durable.
type FaultStore struct {
	inner wal.Store
	trip  func() // fires (once) when a fault injects; schedules the crash

	mu        sync.Mutex
	appends   int
	truncates int
	labels    []string // record types of each appended block, for pilot points
	onAppend  *storeFault
	onTrunc   *storeFault
	tripped   bool
}

// NewFaultStore wraps inner; trip is called exactly once, at the
// moment a fault injects. It runs on the thread that performed the
// store operation — implementations must only schedule work (e.g.
// rt.Runtime.After), not call back into the site synchronously.
func NewFaultStore(inner wal.Store, trip func()) *FaultStore {
	return &FaultStore{inner: inner, trip: trip}
}

// Arm installs the fault to inject. Pass nil to disarm.
func (s *FaultStore) Arm(f *Fault) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.onAppend, s.onTrunc = nil, nil
	if f == nil {
		return
	}
	sf := &storeFault{index: f.Index, mode: f.Mode}
	if f.Class == ClassCkpt {
		s.onTrunc = sf
	} else {
		s.onAppend = sf
	}
}

// Counts reports how many appends and truncates the store has seen.
func (s *FaultStore) Counts() (appends, truncates int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.appends, s.truncates
}

// Tripped reports whether the armed fault has injected.
func (s *FaultStore) Tripped() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tripped
}

// Labels returns the record types of every appended block
// ("UPDATE+PREPARE"), in order — the pilot's force-point labels.
func (s *FaultStore) Labels() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.labels...)
}

// Append counts the write and either passes it through or injects the
// armed fault — and every fault returns ErrInjected, so the write is
// never acknowledged. ModeCrash appends the full block. The other
// modes leave part of the batch behind, which is what a device write
// carrying several records makes possible: ModeTorn cuts the write
// inside the block's first record, so nothing of the batch survives;
// ModeTornLast cuts inside its last record, so all but the last
// survive; ModeBitflip writes the whole block with one bit flipped
// inside its middle record, so the records before it survive.
func (s *FaultStore) Append(block []byte) error {
	s.mu.Lock()
	k := s.appends
	s.appends++
	s.labels = append(s.labels, wal.BlockType(block))
	f := s.onAppend
	fire := f != nil && k == f.index && !s.tripped
	if fire {
		s.tripped = true
	}
	s.mu.Unlock()

	if !fire {
		return s.inner.Append(block)
	}
	// frame i spans bounds[i]..bounds[i+1].
	bounds := append([]int{0}, wal.FrameEnds(block)...)
	n := len(bounds) - 1
	switch {
	case n == 0: // not a log block; no frame to aim at
	case f.mode == ModeTorn:
		block = block[:bounds[1]/2]
	case f.mode == ModeTornLast:
		block = block[:(bounds[n-1]+bounds[n])/2]
	case f.mode == ModeBitflip:
		block = append([]byte(nil), block...)
		block[(bounds[n/2]+bounds[n/2+1])/2] ^= 0x01
	}
	s.inner.Append(block) //nolint:errcheck // damage is the point; the ack is withheld regardless
	s.trip()
	return ErrInjected
}

// Truncate counts the call and either passes it through or refuses it
// and trips: the checkpoint image is already durable when the
// truncation is asked for, so a crash here leaves image and log
// overlapping — recovery must be idempotent about the overlap.
func (s *FaultStore) Truncate(n int) error {
	s.mu.Lock()
	k := s.truncates
	s.truncates++
	f := s.onTrunc
	fire := f != nil && k == f.index && !s.tripped
	if fire {
		s.tripped = true
	}
	s.mu.Unlock()

	if !fire {
		return s.inner.Truncate(n)
	}
	s.trip()
	return ErrInjected
}

// Blocks delegates to the wrapped store.
func (s *FaultStore) Blocks() ([][]byte, error) { return s.inner.Blocks() }

// DropTail delegates to the wrapped store (recovery's torn-tail
// repair must really repair).
func (s *FaultStore) DropTail(n int) error { return s.inner.DropTail(n) }
