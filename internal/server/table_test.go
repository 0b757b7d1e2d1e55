package server

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
)

// checkTable fails t unless tb's invariants hold: n counts the
// occupied slots, the load is at most 3/4, and every entry is
// reachable from its home slot without crossing a free one.
func checkTable(t *testing.T, tb *table) {
	t.Helper()
	mask := len(tb.slots) - 1
	n := 0
	for i, e := range tb.slots {
		if e == "" {
			continue
		}
		n++
		k, _ := split(e)
		for j := tb.home(k); j != i; j = (j + 1) & mask {
			if tb.slots[j] == "" {
				t.Fatalf("entry %q at slot %d: free slot %d between it and its home %d", k, i, j, tb.home(k))
			}
		}
	}
	if n != tb.n || n*4 > len(tb.slots)*3 {
		t.Fatalf("%d occupied slots of %d, n = %d", n, len(tb.slots), tb.n)
	}
}

// Operations of a FuzzObjectTable input. Each is one byte, op%3 its
// kind and op/3%3 where its key comes from, then the key's operand and,
// for a set, a length byte and that many bytes of value.
const (
	opGet byte = iota
	opSet
	opRemove

	keyLiteral = 0 // a length byte and that many bytes
	keyAgain   = 3 // one byte choosing an earlier op's key
	keyHomed   = 6 // one byte choosing a slot: a key whose home it is
)

// tableOp encodes one operation.
func tableOp(kind, src byte, operand []byte, val ...string) []byte {
	b := append([]byte{kind + src}, operand...)
	for _, v := range val {
		b = append(append(b, byte(len(v))), v...)
	}
	return b
}

func literal(key string) []byte { return append([]byte{byte(len(key))}, key...) }

// take returns a length byte's worth of data and the rest, short if
// data ends first.
func take(data []byte) (string, []byte) {
	if len(data) == 0 {
		return "", nil
	}
	n := min(int(data[0]), len(data)-1)
	return string(data[1 : 1+n]), data[1+n:]
}

// homedKey returns a key, not in ref, whose home in tb is slot.
func homedKey(tb *table, ref map[string]string, slot int) (string, bool) {
	slot &= len(tb.slots) - 1
	for j := 0; j < 64*len(tb.slots); j++ {
		k := "@" + strconv.Itoa(j)
		if _, used := ref[k]; !used && tb.home(k) == slot {
			return k, true
		}
	}
	return "", false
}

// FuzzObjectTable runs set, get and remove sequences decoded from its
// input against a table and a map, and fails on the first difference.
// A key is any bytes up to 255 long, so both one- and two-byte length
// prefixes occur, and a key chosen by its home slot packs a run into
// any part of the slot array, its end included.
func FuzzObjectTable(f *testing.F) {
	var empty []byte
	for _, op := range [][]byte{
		tableOp(opSet, keyLiteral, literal(""), "v"),
		tableOp(opGet, keyLiteral, literal("")),
		tableOp(opSet, keyLiteral, literal("k"), ""),
		tableOp(opGet, keyAgain, []byte{2}),
		tableOp(opSet, keyAgain, []byte{0}, ""),
		tableOp(opRemove, keyAgain, []byte{0}),
		tableOp(opGet, keyAgain, []byte{0}),
		tableOp(opGet, keyAgain, []byte{2}),
	} {
		empty = append(empty, op...)
	}
	f.Add(empty)

	var long []byte
	for i, n := range []int{127, 128, 200, 255} {
		long = append(long, tableOp(opSet, keyLiteral, literal(strings.Repeat(string(rune('a'+i)), n)), "value")...)
	}
	for i := byte(0); i < 4; i++ {
		long = append(long, tableOp(opGet, keyAgain, []byte{i})...)
	}
	long = append(long, tableOp(opRemove, keyAgain, []byte{1})...)
	for i := byte(0); i < 4; i++ {
		long = append(long, tableOp(opGet, keyAgain, []byte{i})...)
	}
	f.Add(long)

	// In the 8-slot table: three keys homed at the last slot fill it
	// and the first two, and a fourth homed at slot 0 goes to slot 2.
	// Removing the one at the last slot shifts the other three back
	// across the end of the array; then a run homed at slots 6, 7
	// and 6 wraps too.
	var wrap []byte
	for _, slot := range []byte{7, 7, 7, 0} {
		wrap = append(wrap, tableOp(opSet, keyHomed, []byte{slot}, "w")...)
	}
	wrap = append(wrap, tableOp(opRemove, keyAgain, []byte{0})...)
	for i := byte(0); i < 5; i++ {
		wrap = append(wrap, tableOp(opGet, keyAgain, []byte{i})...)
	}
	for i := byte(1); i < 4; i++ {
		wrap = append(wrap, tableOp(opRemove, keyAgain, []byte{i})...)
	}
	for _, slot := range []byte{6, 7, 6} {
		wrap = append(wrap, tableOp(opSet, keyHomed, []byte{slot}, "x")...)
	}
	wrap = append(wrap, tableOp(opRemove, keyAgain, []byte{13})...)
	wrap = append(wrap, tableOp(opGet, keyAgain, []byte{14})...)
	wrap = append(wrap, tableOp(opGet, keyAgain, []byte{15})...)
	f.Add(wrap)

	// 100 keys double the 8-slot array five times; every other one is
	// removed, and all are looked up.
	var grow []byte
	for i := 0; i < 100; i++ {
		grow = append(grow, tableOp(opSet, keyLiteral, literal("k"+strconv.Itoa(i)), strconv.Itoa(i))...)
	}
	for i := byte(0); i < 100; i += 2 {
		grow = append(grow, tableOp(opRemove, keyAgain, []byte{i})...)
	}
	for i := byte(0); i < 100; i++ {
		grow = append(grow, tableOp(opGet, keyAgain, []byte{i})...)
	}
	f.Add(grow)

	f.Fuzz(func(t *testing.T, data []byte) {
		tb := newTable(0)
		ref := make(map[string]string)
		var keys []string
		for len(data) > 0 {
			op := data[0]
			data = data[1:]
			var key string
			switch op / 3 % 3 {
			case 0:
				key, data = take(data)
			case 1:
				if len(keys) == 0 || len(data) == 0 {
					return
				}
				key, data = keys[int(data[0])%len(keys)], data[1:]
			case 2:
				if len(data) == 0 {
					return
				}
				var ok bool
				if key, ok = homedKey(&tb, ref, int(data[0])); !ok {
					return
				}
				data = data[1:]
			}
			keys = append(keys, key)
			switch op % 3 {
			case opGet:
				v, ok := tb.get(key)
				if rv, rok := ref[key]; v != rv || ok != rok {
					t.Fatalf("get(%q) = %q, %v; want %q, %v", key, v, ok, rv, rok)
				}
			case opSet:
				var val string
				val, data = take(data)
				rv, rok := ref[key]
				old := tb.put(pack(key, val))
				if (old != "") != rok {
					t.Fatalf("put(%q) replaced %q; want an entry: %v", key, old, rok)
				}
				if k, v := "", ""; old != "" {
					if k, v = split(old); k != key || v != rv {
						t.Fatalf("put(%q) replaced the entry %q, %q; want %q, %q", key, k, v, key, rv)
					}
				}
				ref[key] = val
			case opRemove:
				tb.remove(key)
				delete(ref, key)
			}
			checkTable(t, &tb)
		}
		for _, k := range keys {
			v, ok := tb.get(k)
			if rv, rok := ref[k]; v != rv || ok != rok {
				t.Fatalf("at the end, get(%q) = %q, %v; want %q, %v", k, v, ok, rv, rok)
			}
		}
	})
}

// TestRemoveWrapsAroundTheEnd pins the slots of a run that wraps:
// three keys homed at the last slot of 8 sit there and in slots 0
// and 1, and removing the first moves the other two back one slot
// each, the first of them across the end of the array.
func TestRemoveWrapsAroundTheEnd(t *testing.T) {
	tb := newTable(0)
	last := len(tb.slots) - 1
	var keys []string
	ref := make(map[string]string)
	for range 3 {
		k, ok := homedKey(&tb, ref, last)
		if !ok {
			t.Fatal("no key homed at the last slot")
		}
		keys = append(keys, k)
		ref[k] = "v"
		tb.put(pack(k, "v"))
	}
	for i, slot := range []int{last, 0, 1} {
		if k, _ := split(tb.slots[slot]); k != keys[i] {
			t.Fatalf("slot %d holds %q, want %q", slot, k, keys[i])
		}
	}
	tb.remove(keys[0])
	for i, slot := range []int{last, 0} {
		if k, _ := split(tb.slots[slot]); k != keys[i+1] {
			t.Errorf("after the removal slot %d holds %q, want %q", slot, k, keys[i+1])
		}
	}
	if tb.slots[1] != "" || tb.n != 2 {
		t.Errorf("after the removal slot 1 holds %q and n = %d; want free and 2", tb.slots[1], tb.n)
	}
	checkTable(t, &tb)
}

// TestPackAllocatesOnce: an entry is one allocation whether its value
// comes as bytes or as a string.
func TestPackAllocatesOnce(t *testing.T) {
	key, val := strings.Repeat("k", 200), bytes.Repeat([]byte("v"), 64)
	sval := string(val)
	var sink string
	if n := testing.AllocsPerRun(100, func() { sink = pack(key, val) }); n != 1 {
		t.Errorf("pack(string, []byte) allocates %v times, want 1", n)
	}
	if n := testing.AllocsPerRun(100, func() { sink = pack(key, sval) }); n != 1 {
		t.Errorf("pack(string, string) allocates %v times, want 1", n)
	}
	if k, v := split(sink); k != key || v != sval {
		t.Errorf("split(pack(k, v)) = %q, %q", k, v)
	}
}

// BenchmarkObjectTable prices the table's operations at 10,592
// objects, one dist-2pc site's count, with 64-byte values, beside a
// map[string]string doing the same.
func BenchmarkObjectTable(b *testing.B) {
	const n = 10_592
	keys, missing := make([]string, n), make([]string, n)
	for i := range keys {
		keys[i], missing[i] = "p"+strconv.Itoa(i), "q"+strconv.Itoa(i)
	}
	val := bytes.Repeat([]byte("v"), 64)

	tb := newTable(0)
	m := make(map[string]string)
	for _, k := range keys {
		tb.put(pack(k, val))
		m[k] = string(val)
	}
	var sink string
	var found bool
	b.Run("table/get-hit", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sink, found = tb.get(keys[i%n])
		}
	})
	b.Run("map/get-hit", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sink, found = m[keys[i%n]]
		}
	})
	b.Run("table/get-miss", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sink, found = tb.get(missing[i%n])
		}
	})
	b.Run("map/get-miss", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sink, found = m[missing[i%n]]
		}
	})
	b.Run("table/overwrite", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tb.put(pack(keys[i%n], val))
		}
	})
	b.Run("map/overwrite", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m[keys[i%n]] = string(val)
		}
	})
	b.Run("table/insert-delete", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tb.put(pack(missing[i%n], val))
			tb.remove(missing[i%n])
		}
	})
	b.Run("map/insert-delete", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m[missing[i%n]] = string(val)
			delete(m, missing[i%n])
		}
	})
	_, _ = sink, found
}
