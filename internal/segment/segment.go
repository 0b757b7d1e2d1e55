// Package segment holds committed objects: a data server's live
// objects, the recovery process's redo image and the disk manager's
// page image are each one Segment per server, Camelot's recoverable
// segment (paper §2), so the object format is this package's decision.
package segment

import (
	"encoding/binary"
	"hash/maphash"
	"slices"
)

// Segment is an open-addressed hash table of 8-byte slot words over an
// arena of entries. An entry is one object, its key and value written
// back to back into a byte chunk,
//
//	uvarint(len(key)) | uvarint(len(val)) | key | val
//
// and a slot word is 0 (free) or locates one entry:
//
//	tag (16 bits) | chunk index + 1 (32 bits) | offset in the chunk (16 bits)
//
// where the tag is the top 16 bits of the key's hash, so a probe reads
// the arena only when a slot's tag matches. The slot array's length is
// a power of two, probing is linear, and the array doubles before its
// load passes 3/4. A removal shifts the words after it back, so there
// are no tombstones and every entry is reachable from its home slot
// without crossing a free one.
//
// The arena is a list of chunkSize-byte chunks, filled in order; an
// entry longer than bigEntry gets a chunk of its own size. Entries are
// never written over: an overwrite writes a new entry and a removal
// forgets one, and the bytes they leave behind are dead. So is the
// unused tail of a chunk the next entry did not fit. When the dead
// bytes exceed half the live ones plus one chunk, the segment copies
// its live entries into fresh chunks, so the arena never holds more
// than 3/2 of its live bytes plus two chunks. Nothing iterates a
// segment, so where an entry sits is never observable.
type Segment struct {
	slots  []uint64
	n      int // occupied slots
	chunks [][]byte
	cur    int // the chunk entries are filled into
	used   int // bytes of chunks[cur] filled; chunkSize when there is none
	live   int // bytes of the entries the slots locate
	dead   int // bytes of chunks neither live nor free in chunks[cur]
	seed   maphash.Seed
}

const (
	minSlots  = 8
	chunkSize = 16 << 10
	bigEntry  = chunkSize / 8 // a longer entry gets a chunk of its own

	offBits  = 16 // chunkSize offsets fit
	tagShift = 48
	offMask  = 1<<offBits - 1
	locMask  = 1<<tagShift - 1 // a word without its tag
)

// New returns an empty segment with room for n entries.
func New(n int) *Segment {
	size := minSlots
	for n*4 > size*3 {
		size *= 2
	}
	return &Segment{slots: make([]uint64, size), used: chunkSize, seed: maphash.MakeSeed()}
}

// hash is key's hash under the segment's seed: its low bits pick the
// home slot, its top 16 the tag.
func (t *Segment) hash(key string) uint64 { return maphash.String(t.seed, key) }

// entry returns the entry w locates, its key and its value, views
// into its chunk.
func (t *Segment) entry(w uint64) (e, key, val []byte) {
	b := t.chunks[int(w&locMask>>offBits)-1][w&offMask:]
	kl, n := binary.Uvarint(b)
	vl, m := binary.Uvarint(b[n:])
	k := n + m
	v := k + int(kl)
	end := v + int(vl)
	return b[:end], b[k:v], b[v:end:end]
}

// home is the first probe slot of the entry w locates.
func (t *Segment) home(w uint64) int {
	_, k, _ := t.entry(w)
	return int(maphash.Bytes(t.seed, k) & uint64(len(t.slots)-1))
}

// find returns the slot of the key hashing to h and true, or the free
// slot that ends its probe sequence and false.
func (t *Segment) find(key string, h uint64) (int, bool) {
	mask := len(t.slots) - 1
	tag := h >> tagShift
	for i := int(h) & mask; ; i = (i + 1) & mask {
		w := t.slots[i]
		if w == 0 {
			return i, false
		}
		if w>>tagShift == tag {
			if _, k, _ := t.entry(w); string(k) == key {
				return i, true
			}
		}
	}
}

// Get returns key's value, a view into the arena that stays valid, and
// unchanged, for as long as it is held.
func (t *Segment) Get(key string) ([]byte, bool) {
	i, ok := t.find(key, t.hash(key))
	if !ok {
		return nil, false
	}
	_, _, v := t.entry(t.slots[i])
	return v, true
}

// Put stores val under key in t and returns the value it replaced, a
// view as Get returns, and whether the key had one.
func (t *Segment) Put(key string, val []byte) ([]byte, bool) {
	h := t.hash(key)
	i, ok := t.find(key, h)
	var pre [2 * binary.MaxVarintLen64]byte
	p := binary.AppendUvarint(binary.AppendUvarint(pre[:0], uint64(len(key))), uint64(len(val)))
	e, loc := t.alloc(len(p) + len(key) + len(val))
	n := copy(e, p)
	n += copy(e[n:], key)
	copy(e[n:], val)
	t.live += len(e)
	w := h&^locMask | loc
	var old []byte
	if ok {
		_, _, old = t.entry(t.slots[i])
		t.forget(t.slots[i])
		t.slots[i] = w
	} else {
		if (t.n+1)*4 > len(t.slots)*3 {
			t.grow()
			i, _ = t.find(key, h)
		}
		t.slots[i] = w
		t.n++
	}
	t.compactIfWasteful()
	return old, ok
}

// Remove deletes key's entry, if any, closing the gap it leaves: each
// word after it in the run whose home is not cyclically in (gap, j]
// moves back into the gap, which moves to where it was.
func (t *Segment) Remove(key string) {
	gap, ok := t.find(key, t.hash(key))
	if !ok {
		return
	}
	t.forget(t.slots[gap])
	mask := len(t.slots) - 1
	for j := (gap + 1) & mask; t.slots[j] != 0; j = (j + 1) & mask {
		if h := t.home(t.slots[j]); (j-h)&mask >= (j-gap)&mask {
			t.slots[gap] = t.slots[j]
			gap = j
		}
	}
	t.slots[gap] = 0
	t.n--
	t.compactIfWasteful()
}

// Clone returns a copy of t that shares every chunk with it and copies
// only the slot words and the chunk list. No byte both can reach is
// ever written again: entries are never written over, and the clone's
// view of t's current chunk ends at its filled bytes, so t alone fills
// the rest and the clone's next write starts a fresh chunk.
func (t *Segment) Clone() *Segment {
	c := *t
	c.slots = slices.Clone(t.slots)
	c.chunks = slices.Clone(t.chunks)
	if t.used < chunkSize {
		c.chunks[t.cur] = t.chunks[t.cur][:t.used:t.used]
		c.used = chunkSize
	}
	return &c
}

// forget counts the entry w locates as dead.
func (t *Segment) forget(w uint64) {
	e, _, _ := t.entry(w)
	t.live -= len(e)
	t.dead += len(e)
}

// alloc returns n fresh bytes of the arena and their location, a slot
// word without its tag. A chunk the bytes do not fit is left, and its
// unused tail counted dead.
func (t *Segment) alloc(n int) ([]byte, uint64) {
	if n > bigEntry {
		t.chunks = append(t.chunks, make([]byte, n))
		return t.chunks[len(t.chunks)-1], uint64(len(t.chunks)) << offBits
	}
	if t.used+n > chunkSize {
		t.dead += chunkSize - t.used
		t.chunks = append(t.chunks, make([]byte, chunkSize))
		t.cur, t.used = len(t.chunks)-1, 0
	}
	off := t.used
	t.used += n
	return t.chunks[t.cur][off:t.used:t.used], uint64(t.cur+1)<<offBits | uint64(off)
}

// compactIfWasteful copies the live entries into fresh chunks when the
// dead bytes exceed half the live ones plus a chunk. A compaction
// leaves only chunk tails dead, under an eighth of a chunk each, so the
// next one is at least a third of the live bytes of churn away.
func (t *Segment) compactIfWasteful() {
	if t.dead <= t.live/2+chunkSize {
		return
	}
	old := *t
	t.chunks, t.used, t.live, t.dead = nil, chunkSize, 0, 0
	for i, w := range t.slots {
		if w != 0 {
			e, _, _ := old.entry(w)
			f, loc := t.alloc(len(e))
			copy(f, e)
			t.live += len(f)
			t.slots[i] = w&^locMask | loc
		}
	}
}

// grow doubles the slot array and re-places every word.
func (t *Segment) grow() {
	old := t.slots
	t.slots = make([]uint64, 2*len(old))
	mask := len(t.slots) - 1
	for _, w := range old {
		if w != 0 {
			i := t.home(w)
			for t.slots[i] != 0 {
				i = (i + 1) & mask
			}
			t.slots[i] = w
		}
	}
}
