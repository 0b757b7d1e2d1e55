package server

import (
	"encoding/binary"
	"hash/maphash"
	"strings"
)

// table is a server's object table: an open-addressed hash table whose
// slots are strings, each "" (free) or one entry. An entry is the
// object's key and value packed into one string,
//
//	uvarint(len(key)) | key | value
//
// so an object costs its entry and one 16-byte slot, and the table
// keeps no key string of its own. The slot array's length is a power
// of two, probing is linear, and the array doubles before its load
// passes 3/4. A removal shifts the entries after it back, so there are
// no tombstones and every entry is reachable from its home slot
// without crossing a free one. Nothing iterates the table, so where
// an entry sits is never observable.
type table struct {
	slots []string
	n     int // occupied slots
	seed  maphash.Seed
}

const minSlots = 8

// newTable returns an empty table with room for n entries.
func newTable(n int) table {
	size := minSlots
	for n*4 > size*3 {
		size *= 2
	}
	return table{slots: make([]string, size), seed: maphash.MakeSeed()}
}

// pack returns key and val as one entry, in one allocation.
func pack[V string | []byte](key string, val V) string {
	var pre [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(pre[:], uint64(len(key)))
	var b strings.Builder
	b.Grow(n + len(key) + len(val))
	b.Write(pre[:n])
	b.WriteString(key)
	switch v := any(val).(type) {
	case string:
		b.WriteString(v)
	case []byte:
		b.Write(v)
	}
	return b.String()
}

// split returns an entry's key and value, substrings of e.
func split(e string) (key, val string) {
	n, i := 0, 0
	for shift := 0; ; shift += 7 {
		b := e[i]
		i++
		n |= int(b&0x7f) << shift
		if b < 0x80 {
			break
		}
	}
	return e[i : i+n], e[i+n:]
}

// home is key's first probe slot.
func (t *table) home(key string) int {
	return int(maphash.String(t.seed, key) & uint64(len(t.slots)-1))
}

// find returns key's slot and true, or the free slot that ends its
// probe sequence and false.
func (t *table) find(key string) (int, bool) {
	mask := len(t.slots) - 1
	for i := t.home(key); ; i = (i + 1) & mask {
		e := t.slots[i]
		if e == "" {
			return i, false
		}
		if len(key) < 0x80 {
			// A one-byte length prefix: no decoding needed.
			if len(e) > len(key) && e[0] == byte(len(key)) && e[1:1+len(key)] == key {
				return i, true
			}
		} else if k, _ := split(e); k == key {
			return i, true
		}
	}
}

// get returns key's value, a substring of its entry.
func (t *table) get(key string) (string, bool) {
	i, ok := t.find(key)
	if !ok {
		return "", false
	}
	_, v := split(t.slots[i])
	return v, true
}

// put stores entry e under its key and returns the entry it replaced,
// or "" if the key had none.
func (t *table) put(e string) string {
	key, _ := split(e)
	i, ok := t.find(key)
	if ok {
		old := t.slots[i]
		t.slots[i] = e
		return old
	}
	if (t.n+1)*4 > len(t.slots)*3 {
		t.grow()
		i, _ = t.find(key)
	}
	t.slots[i] = e
	t.n++
	return ""
}

// remove deletes key's entry, if any, closing the gap it leaves: each
// entry after it in the run whose home is not cyclically in (gap, j]
// moves back into the gap, which moves to where it was.
func (t *table) remove(key string) {
	gap, ok := t.find(key)
	if !ok {
		return
	}
	mask := len(t.slots) - 1
	for j := (gap + 1) & mask; t.slots[j] != ""; j = (j + 1) & mask {
		k, _ := split(t.slots[j])
		if h := t.home(k); (j-h)&mask >= (j-gap)&mask {
			t.slots[gap] = t.slots[j]
			gap = j
		}
	}
	t.slots[gap] = ""
	t.n--
}

// grow doubles the slot array and re-places every entry.
func (t *table) grow() {
	old := t.slots
	t.slots = make([]string, 2*len(old))
	for _, e := range old {
		if e != "" {
			k, _ := split(e)
			i, _ := t.find(k)
			t.slots[i] = e
		}
	}
}
