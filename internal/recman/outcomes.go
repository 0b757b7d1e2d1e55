package recman

import (
	"maps"
	"math/bits"
	"slices"

	"camelot/internal/tid"
	"camelot/internal/wire"
)

// OutcomeTable maps finished families to their top-level outcome. It
// is the one spelling of that fact on every layer that keeps it: the
// analysis of a log (Analysis.Outcomes), the checkpoint image
// (diskman.Snapshot.Outcomes) and the transaction manager's
// resolved-outcome memory.
//
// An outcome takes two bits (wire.OutcomeUnknown, OutcomeCommit and
// OutcomeAbort are 0, 1 and 2), so the table packs the families that
// share all but the low five bits of their id into one 64-bit word.
// Family counters are allocated consecutively per origin, so where a
// site finishes most of an origin's families they cost about one byte
// each, against 17–31 bytes in a plain map from family to outcome. A
// word that holds a single family is kept apart, as its slot and
// outcome in one byte, so a family that shares its word with no other
// costs one entry of a map laid out like that plain map, and no more.
//
// The zero value is an empty table. An OutcomeTable is not safe for
// concurrent use.
type OutcomeTable struct {
	words map[uint64]uint64 // family >> slotBits → two bits per slot, two or more families
	lone  map[uint64]uint8  // family >> slotBits → slot<<2 | outcome, one family
	n     int               // definite outcomes held
}

const (
	slotBits = 5 // 32 two-bit slots per word
	slotMask = 1<<slotBits - 1
	// lowBits selects the low bit of every slot.
	lowBits uint64 = 0x5555555555555555
)

// slot splits a family into its word key and the bit offset of its
// slot in that word.
func slot(f tid.FamilyID) (key uint64, shift uint) {
	return uint64(f) >> slotBits, uint(f&slotMask) * 2
}

// definite returns the low bit of every slot of w that holds a
// definite outcome; times 3 it masks both bits of those slots.
func definite(w uint64) uint64 { return (w | w>>1) & lowBits }

// Get returns f's outcome, wire.OutcomeUnknown if the table does not
// hold it.
func (t *OutcomeTable) Get(f tid.FamilyID) wire.Outcome {
	key, shift := slot(f)
	return wire.Outcome(t.load(key) >> shift & 3)
}

// Set records f's outcome; wire.OutcomeUnknown removes it.
func (t *OutcomeTable) Set(f tid.FamilyID, o wire.Outcome) {
	key, shift := slot(f)
	old := t.load(key)
	t.store(key, old, old&^(3<<shift)|uint64(o&3)<<shift)
}

// load returns word key, from whichever map holds it.
func (t *OutcomeTable) load(key uint64) uint64 {
	if w, ok := t.words[key]; ok {
		return w
	}
	if v, ok := t.lone[key]; ok {
		return uint64(v&3) << (v >> 2 * 2)
	}
	return 0
}

// store replaces word key, which holds old, with w, keeping n: an
// empty word is deleted, a word with one family goes to lone, any other
// to words.
func (t *OutcomeTable) store(key, old, w uint64) {
	if w == old {
		return
	}
	t.n += bits.OnesCount64(definite(w)) - bits.OnesCount64(definite(old))
	i := uint(bits.TrailingZeros64(w)) &^ 1 // the first slot's low bit
	switch {
	case w == 0:
		delete(t.words, key)
		delete(t.lone, key)
	case w>>i <= 3:
		delete(t.words, key)
		if t.lone == nil {
			t.lone = make(map[uint64]uint8)
		}
		t.lone[key] = uint8(i/2<<2) | uint8(w>>i)
	default:
		delete(t.lone, key)
		if t.words == nil {
			t.words = make(map[uint64]uint64)
		}
		t.words[key] = w
	}
}

// each calls fn for every word the table holds, in no fixed order.
func (t *OutcomeTable) each(fn func(key, w uint64)) {
	//lint:ordered every caller is per key: Range sorts what it collects, Merge and Drop store each key alone
	for key, w := range t.words {
		fn(key, w)
	}
	//lint:ordered as above
	for key := range t.lone {
		fn(key, t.load(key))
	}
}

// Len reports how many families hold a definite outcome.
func (t *OutcomeTable) Len() int { return t.n }

// Range calls fn for every family in the table, in ascending family
// order.
func (t *OutcomeTable) Range(fn func(tid.FamilyID, wire.Outcome)) {
	keys := make([]uint64, 0, len(t.words)+len(t.lone))
	t.each(func(key, _ uint64) { keys = append(keys, key) })
	slices.Sort(keys)
	for _, key := range keys {
		w := t.load(key)
		for w != 0 {
			i := uint(bits.TrailingZeros64(w)) &^ 1 // the slot's low bit
			fn(tid.FamilyID(key<<slotBits|uint64(i/2)), wire.Outcome(w>>i&3))
			w &^= 3 << i
		}
	}
}

// Clone returns an independent copy of t.
func (t *OutcomeTable) Clone() OutcomeTable {
	return OutcomeTable{words: maps.Clone(t.words), lone: maps.Clone(t.lone), n: t.n}
}

// Merge copies every outcome src holds into t, replacing t's outcome
// for a family both hold.
func (t *OutcomeTable) Merge(src *OutcomeTable) {
	src.each(func(key, w uint64) {
		old := t.load(key)
		t.store(key, old, old&^(definite(w)*3)|w)
	})
}

// Drop removes from t every family src holds, whatever its outcome in
// either table.
func (t *OutcomeTable) Drop(src *OutcomeTable) {
	src.each(func(key, w uint64) {
		old := t.load(key)
		t.store(key, old, old&^(definite(w)*3))
	})
}
