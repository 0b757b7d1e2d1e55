package server

import (
	"bytes"
	"math/bits"
	"strconv"
	"strings"
	"testing"
)

// checkTable fails t unless tb's invariants hold: n counts the
// occupied slots, the load is at most 3/4, every entry is reachable
// from its home slot without crossing a free one and carries its key's
// tag, the live and dead byte counts match a recount from the slots
// and chunks, and the dead bytes are within the compaction bound.
func checkTable(t *testing.T, tb *table) {
	t.Helper()
	mask := len(tb.slots) - 1
	n, live := 0, 0
	for i, w := range tb.slots {
		if w == 0 {
			continue
		}
		n++
		e, k, _ := tb.entry(w)
		live += len(e)
		if h := tb.hash(string(k)); w>>tagShift != h>>tagShift {
			t.Fatalf("entry %q at slot %d: tag %#x, its key's hash %#x", k, i, w>>tagShift, h)
		}
		for j := tb.home(w); j != i; j = (j + 1) & mask {
			if tb.slots[j] == 0 {
				t.Fatalf("entry %q at slot %d: free slot %d between it and its home %d", k, i, j, tb.home(w))
			}
		}
	}
	if n != tb.n || n*4 > len(tb.slots)*3 {
		t.Fatalf("%d occupied slots of %d, n = %d", n, len(tb.slots), tb.n)
	}
	arena := 0
	for _, c := range tb.chunks {
		arena += len(c)
	}
	if dead := arena - (chunkSize - tb.used) - live; live != tb.live || dead != tb.dead {
		t.Fatalf("%d live and %d dead bytes counted, %d and %d recounted", tb.live, tb.dead, live, dead)
	}
	if tb.dead > tb.live/2+chunkSize {
		t.Fatalf("%d dead bytes beside %d live ones, over the compaction bound", tb.dead, tb.live)
	}
}

// Operations of a FuzzObjectTable input. Each is one byte, op%3 its
// kind, op/3%3 where its key comes from and op/9%2 whether a set's
// value is long, then the key's operand and, for a set, a length byte
// and that many bytes of value; a long value is those bytes repeated
// longRepeat times, so it can outgrow a chunk.
const (
	opGet byte = iota
	opSet
	opRemove

	keyLiteral = 0 // a length byte and that many bytes
	keyAgain   = 3 // one byte choosing an earlier op's key
	keyHomed   = 6 // one byte choosing a slot: a key whose home it is

	long       = 9
	longRepeat = 65 // 255 bytes repeated: longer than a chunk
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

// homeOf is key's home slot in tb.
func homeOf(tb *table, key string) int { return int(tb.hash(key)) & (len(tb.slots) - 1) }

// homedKey returns a key, not in ref, whose home in tb is slot.
func homedKey(tb *table, ref map[string]string, slot int) (string, bool) {
	slot &= len(tb.slots) - 1
	for j := 0; j < 64*len(tb.slots); j++ {
		k := "@" + strconv.Itoa(j)
		if _, used := ref[k]; !used && homeOf(tb, k) == slot {
			return k, true
		}
	}
	return "", false
}

// FuzzObjectTable runs set, get and remove sequences decoded from its
// input against a table and a map, and fails on the first difference.
// A key is any bytes up to 255 long, so both one- and two-byte length
// prefixes occur, a key chosen by its home slot packs a run into any
// part of the slot array, its end included, and a long value fills a
// chunk of its own.
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

	var longKeys []byte
	for i, n := range []int{127, 128, 200, 255} {
		longKeys = append(longKeys, tableOp(opSet, keyLiteral, literal(strings.Repeat(string(rune('a'+i)), n)), "value")...)
	}
	for i := byte(0); i < 4; i++ {
		longKeys = append(longKeys, tableOp(opGet, keyAgain, []byte{i})...)
	}
	longKeys = append(longKeys, tableOp(opRemove, keyAgain, []byte{1})...)
	for i := byte(0); i < 4; i++ {
		longKeys = append(longKeys, tableOp(opGet, keyAgain, []byte{i})...)
	}
	f.Add(longKeys)

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

	// Two keys, then 80 overwrites of a third with 255-byte values:
	// its dead entries pass half the live bytes plus a chunk at the
	// 65th, and the table compacts; all three are looked up after.
	churn := append(tableOp(opSet, keyLiteral, literal("a"), "1"), tableOp(opSet, keyLiteral, literal("b"), "2")...)
	for i := 0; i < 80; i++ {
		churn = append(churn, tableOp(opSet, keyLiteral, literal("c"), strings.Repeat(string(rune('a'+i%26)), 255))...)
	}
	for i := byte(0); i < 3; i++ {
		churn = append(churn, tableOp(opGet, keyAgain, []byte{i})...)
	}
	f.Add(churn)

	// Five short keys and a long value, overwritten twice, with a
	// doubling from 8 slots between the overwrites: the second
	// overwrite's dead predecessors pass the bound, and the compaction
	// moves every entry of the doubled array.
	var both []byte
	for i := 0; i < 5; i++ {
		both = append(both, tableOp(opSet, keyLiteral, literal("s"+strconv.Itoa(i)), "v")...)
	}
	both = append(both, tableOp(opSet+long, keyLiteral, literal("L"), strings.Repeat("x", 255))...)
	both = append(both, tableOp(opSet+long, keyAgain, []byte{5}, strings.Repeat("y", 255))...)
	for i := 5; i < 7; i++ {
		both = append(both, tableOp(opSet, keyLiteral, literal("s"+strconv.Itoa(i)), "v")...)
	}
	both = append(both, tableOp(opSet+long, keyAgain, []byte{5}, strings.Repeat("z", 255))...)
	for i := byte(0); i < 9; i++ {
		both = append(both, tableOp(opGet, keyAgain, []byte{i})...)
	}
	f.Add(both)

	// A long value in a chunk of its own is removed, then the one
	// short entry of the first chunk: each chunk loses its last live
	// entry. Both keys come back, the short one long and the long one
	// short.
	last := append(tableOp(opSet, keyLiteral, literal("x"), "short"), tableOp(opSet+long, keyLiteral, literal("L"), strings.Repeat("l", 255))...)
	last = append(last, tableOp(opRemove, keyAgain, []byte{1})...)
	last = append(last, tableOp(opRemove, keyAgain, []byte{0})...)
	last = append(last, tableOp(opGet, keyAgain, []byte{0})...)
	last = append(last, tableOp(opGet, keyAgain, []byte{1})...)
	last = append(last, tableOp(opSet+long, keyAgain, []byte{0}, strings.Repeat("s", 255))...)
	last = append(last, tableOp(opSet, keyAgain, []byte{1}, "long")...)
	last = append(last, tableOp(opGet, keyAgain, []byte{0})...)
	last = append(last, tableOp(opGet, keyAgain, []byte{1})...)
	f.Add(last)

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
				if rv, rok := ref[key]; string(v) != rv || ok != rok {
					t.Fatalf("get(%q) = %.20q, %v; want %.20q, %v", key, v, ok, rv, rok)
				}
			case opSet:
				var val string
				val, data = take(data)
				if op/long%2 == 1 {
					val = strings.Repeat(val, longRepeat)
				}
				rv, rok := ref[key]
				if old, ok := put(&tb, key, val); string(old) != rv || ok != rok {
					t.Fatalf("put(%q) replaced %.20q, %v; want %.20q, %v", key, old, ok, rv, rok)
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
			if rv, rok := ref[k]; string(v) != rv || ok != rok {
				t.Fatalf("at the end, get(%q) = %.20q, %v; want %.20q, %v", k, v, ok, rv, rok)
			}
		}
	})
}

// keyAt returns the key of the entry in tb's slot i, "" if it is free.
func keyAt(tb *table, i int) string {
	if tb.slots[i] == 0 {
		return ""
	}
	_, k, _ := tb.entry(tb.slots[i])
	return string(k)
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
		put(&tb, k, "v")
	}
	for i, slot := range []int{last, 0, 1} {
		if k := keyAt(&tb, slot); k != keys[i] {
			t.Fatalf("slot %d holds %q, want %q", slot, k, keys[i])
		}
	}
	tb.remove(keys[0])
	for i, slot := range []int{last, 0} {
		if k := keyAt(&tb, slot); k != keys[i+1] {
			t.Errorf("after the removal slot %d holds %q, want %q", slot, k, keys[i+1])
		}
	}
	if tb.slots[1] != 0 || tb.n != 2 {
		t.Errorf("after the removal slot 1 holds %q and n = %d; want free and 2", keyAt(&tb, 1), tb.n)
	}
	checkTable(t, &tb)
}

// TestInsertAllocatesNoEntry: 10,000 inserts into an empty table
// allocate its chunks, its slot arrays (the first and one a doubling)
// and the chunk list's own doublings, and nothing per entry.
func TestInsertAllocatesNoEntry(t *testing.T) {
	const n = 10_000
	keys := make([]string, n)
	for i := range keys {
		keys[i] = "key/" + strconv.Itoa(i)
	}
	val := bytes.Repeat([]byte("v"), 64)
	var tb table
	allocs := testing.AllocsPerRun(1, func() {
		tb = newTable(0)
		for _, k := range keys {
			put(&tb, k, val)
		}
	})
	arrays := bits.Len(uint(len(tb.slots) / minSlots)) // the first and one a doubling
	want := len(tb.chunks) + arrays + bits.Len(uint(len(tb.chunks))) + 1
	t.Logf("%d inserts: %v allocations, %d chunks, %d slot arrays", n, allocs, len(tb.chunks), arrays)
	if allocs > float64(want) {
		t.Errorf("%d inserts allocate %v times, want at most %d: %d chunks, %d slot arrays and the chunk list", n, allocs, want, len(tb.chunks), arrays)
	}
	checkTable(t, &tb)
}

// BenchmarkObjectTable prices the table's operations at 10,592
// objects, one dist-2pc site's count, with 64-byte values, beside a
// map[string]string doing the same. overwrite-churn overwrites with
// values of 16 and 200 bytes in turn, so the arena compacts every few
// thousand operations, and reports the compactions it ran.
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
		put(&tb, k, val)
		m[k] = string(val)
	}
	var sink []byte
	var ssink string
	var found bool
	b.Run("table/get-hit", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sink, found = tb.get(keys[i%n])
		}
	})
	b.Run("map/get-hit", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ssink, found = m[keys[i%n]]
		}
	})
	b.Run("table/get-miss", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sink, found = tb.get(missing[i%n])
		}
	})
	b.Run("map/get-miss", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ssink, found = m[missing[i%n]]
		}
	})
	b.Run("table/overwrite", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			put(&tb, keys[i%n], val)
		}
	})
	b.Run("map/overwrite", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m[keys[i%n]] = string(val)
		}
	})
	b.Run("table/insert-delete", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			put(&tb, missing[i%n], val)
			tb.remove(missing[i%n])
		}
	})
	b.Run("map/insert-delete", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m[missing[i%n]] = string(val)
			delete(m, missing[i%n])
		}
	})
	b.Run("table/overwrite-churn", func(b *testing.B) {
		vals := [2][]byte{val[:16], bytes.Repeat([]byte("w"), 200)}
		compactions := 0
		for i := 0; i < b.N; i++ {
			dead := tb.dead
			put(&tb, keys[i%n], vals[i/n%2])
			if tb.dead < dead {
				compactions++
			}
		}
		b.ReportMetric(float64(compactions)/float64(b.N), "compactions/op")
	})
	_, _, _ = sink, ssink, found
}
