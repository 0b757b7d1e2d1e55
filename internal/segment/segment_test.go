package segment

import (
	"bytes"
	"maps"
	"math"
	"math/bits"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// checkTable fails t unless tb's invariants hold: n counts the
// occupied slots, the load is at most 3/4, every entry is reachable
// from its home slot without crossing a free one and carries its key's
// tag, the live and dead byte counts match a recount from the slots
// and chunks, and the dead bytes are within the compaction bound.
func checkTable(t *testing.T, tb *Segment) {
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
// longRepeat times, so it can outgrow a chunk. The byte opClone alone
// is a clone, with no operand.
const (
	opGet byte = iota
	opSet
	opRemove
	opClone = 18

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
func homeOf(tb *Segment, key string) int { return int(tb.hash(key)) & (len(tb.slots) - 1) }

// homedKey returns a key, not in ref, whose home in tb is slot.
func homedKey(tb *Segment, ref map[string]string, slot int) (string, bool) {
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
// chunk of its own. A clone forks the table whose turn it is and its
// map; from then on the operations alternate between the table and
// its clone, each checked against its own map, and both tables are
// checked after every operation.
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

	// Clone a table of two keys, then overwrite one of them in the
	// table and in the clone, with values of one length, and read both
	// keys from both.
	over := append(tableOp(opSet, keyLiteral, literal("k"), "v0"), tableOp(opSet, keyLiteral, literal("j"), "w")...)
	over = append(over, opClone)
	over = append(over, tableOp(opSet, keyAgain, []byte{0}, "one")...)
	over = append(over, tableOp(opSet, keyAgain, []byte{0}, "two")...)
	for _, i := range []byte{0, 0, 1, 1} {
		over = append(over, tableOp(opGet, keyAgain, []byte{i})...)
	}
	f.Add(over)

	// Clone a table of three keys, then overwrite one in the table with
	// 255-byte values until it compacts, while the clone reads every
	// key in turn.
	compact := append(tableOp(opSet, keyLiteral, literal("a"), "1"), tableOp(opSet, keyLiteral, literal("b"), "2")...)
	compact = append(compact, tableOp(opSet, keyLiteral, literal("c"), "3")...)
	compact = append(compact, opClone)
	for i := 0; i < 80; i++ {
		compact = append(compact, tableOp(opSet, keyAgain, []byte{2}, strings.Repeat(string(rune('a'+i%26)), 255))...)
		compact = append(compact, tableOp(opGet, keyAgain, []byte{byte(i % 3)})...)
	}
	f.Add(compact)

	// Clone a table whose one chunk has a free tail, then insert a key
	// into each: every key is read from both.
	tail := append(tableOp(opSet, keyLiteral, literal("x"), "short"), opClone)
	tail = append(tail, tableOp(opSet, keyLiteral, literal("p"), "1")...)
	tail = append(tail, tableOp(opSet, keyLiteral, literal("q"), "2")...)
	for _, i := range []byte{0, 0, 1, 1, 2, 2} {
		tail = append(tail, tableOp(opGet, keyAgain, []byte{i})...)
	}
	f.Add(tail)

	f.Fuzz(func(t *testing.T, data []byte) {
		tbs, refs := []*Segment{New(0)}, []map[string]string{{}}
		turn := 0
		var keys []string
		for len(data) > 0 {
			op := data[0]
			data = data[1:]
			if op == opClone {
				tbs = []*Segment{tbs[turn], tbs[turn].Clone()}
				refs = []map[string]string{refs[turn], maps.Clone(refs[turn])}
				turn = 0
				for _, tb := range tbs {
					checkTable(t, tb)
				}
				continue
			}
			tb, ref := tbs[turn], refs[turn]
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
				if key, ok = homedKey(tb, ref, int(data[0])); !ok {
					return
				}
				data = data[1:]
			}
			keys = append(keys, key)
			switch op % 3 {
			case opGet:
				v, ok := tb.Get(key)
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
				if old, ok := tb.Put(key, []byte(val)); string(old) != rv || ok != rok {
					t.Fatalf("put(%q) replaced %.20q, %v; want %.20q, %v", key, old, ok, rv, rok)
				}
				ref[key] = val
			case opRemove:
				tb.Remove(key)
				delete(ref, key)
			}
			for _, tb := range tbs {
				checkTable(t, tb)
			}
			turn = (turn + 1) % len(tbs)
		}
		for i, tb := range tbs {
			for _, k := range keys {
				v, ok := tb.Get(k)
				if rv, rok := refs[i][k]; string(v) != rv || ok != rok {
					t.Fatalf("at the end, table %d: get(%q) = %.20q, %v; want %.20q, %v", i, k, v, ok, rv, rok)
				}
			}
		}
	})
}

// keyAt returns the key of the entry in tb's slot i, "" if it is free.
func keyAt(tb *Segment, i int) string {
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
	tb := New(0)
	last := len(tb.slots) - 1
	var keys []string
	ref := make(map[string]string)
	for range 3 {
		k, ok := homedKey(tb, ref, last)
		if !ok {
			t.Fatal("no key homed at the last slot")
		}
		keys = append(keys, k)
		ref[k] = "v"
		tb.Put(k, []byte("v"))
	}
	for i, slot := range []int{last, 0, 1} {
		if k := keyAt(tb, slot); k != keys[i] {
			t.Fatalf("slot %d holds %q, want %q", slot, k, keys[i])
		}
	}
	tb.Remove(keys[0])
	for i, slot := range []int{last, 0} {
		if k := keyAt(tb, slot); k != keys[i+1] {
			t.Errorf("after the removal slot %d holds %q, want %q", slot, k, keys[i+1])
		}
	}
	if tb.slots[1] != 0 || tb.n != 2 {
		t.Errorf("after the removal slot 1 holds %q and n = %d; want free and 2", keyAt(tb, 1), tb.n)
	}
	checkTable(t, tb)
}

// TestInsertAllocatesNoEntry: 10,000 inserts into an empty segment
// allocate the Segment, its chunks, its slot arrays (the first and one
// a doubling) and the chunk list's own doublings, and nothing per
// entry.
func TestInsertAllocatesNoEntry(t *testing.T) {
	const n = 10_000
	keys := make([]string, n)
	for i := range keys {
		keys[i] = "key/" + strconv.Itoa(i)
	}
	val := bytes.Repeat([]byte("v"), 64)
	var tb *Segment
	allocs := testing.AllocsPerRun(1, func() {
		tb = New(0)
		for _, k := range keys {
			tb.Put(k, val)
		}
	})
	arrays := bits.Len(uint(len(tb.slots) / minSlots)) // the first and one a doubling
	want := 1 + len(tb.chunks) + arrays + bits.Len(uint(len(tb.chunks))) + 1
	t.Logf("%d inserts: %v allocations, %d chunks, %d slot arrays", n, allocs, len(tb.chunks), arrays)
	if allocs > float64(want) {
		t.Errorf("%d inserts allocate %v times, want at most %d: %d chunks, %d slot arrays and the chunk list", n, allocs, want, len(tb.chunks), arrays)
	}
	checkTable(t, tb)
}

// cloned keeps a clone alive past the call that made it, so that it is
// allocated on the heap wherever Clone is inlined.
var cloned *Segment

// TestCloneSharesEveryChunk pins what cloning a 100,000-object segment
// costs: three allocations, the Segment, its slot array and its chunk
// list, 8 B an object and 24 B a chunk, and not one byte of an entry.
// Every chunk of the clone is the original's own, and the first write
// to the clone starts a fresh one.
func TestCloneSharesEveryChunk(t *testing.T) {
	const n = 100_000
	tb := New(0)
	val := bytes.Repeat([]byte("v"), 64)
	for i := 0; i < n; i++ {
		tb.Put("key/"+strconv.Itoa(i), val)
	}
	if allocs := testing.AllocsPerRun(10, func() { cloned = tb.Clone() }); allocs != 3 {
		t.Errorf("cloning %d objects allocates %v times, want 3: the Segment, its slots and its chunk list", n, allocs)
	}
	// A Segment's own allocation is its size rounded up to a size
	// class, and the chunk list's capacity is rounded down from one.
	const header = 128
	if size := reflect.TypeOf(Segment{}).Size(); size > header {
		t.Fatalf("a Segment is %d B, over the %d B the bound allows it", size, header)
	}
	// TotalAlloc counts every goroutine's allocations, which can only
	// add to the clone's: the least of five clones is the clone's own.
	got := uint64(math.MaxUint64)
	for range 5 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		cloned = tb.Clone()
		runtime.ReadMemStats(&after)
		got = min(got, after.TotalAlloc-before.TotalAlloc)
	}
	c := cloned
	bound := 8*len(tb.slots) + 24*(cap(c.chunks)+1) + header
	t.Logf("cloning %d objects: %d B for %d slots and %d chunks", n, got, len(tb.slots), len(tb.chunks))
	if got > uint64(bound) {
		t.Errorf("cloning %d objects allocates %d B, want at most %d: %d slot words and %d chunk headers", n, got, bound, len(tb.slots), len(tb.chunks))
	}
	for i := range tb.chunks {
		if &c.chunks[i][0] != &tb.chunks[i][0] {
			t.Fatalf("the clone's chunk %d is a copy", i)
		}
	}
	c.Put("key/0", []byte("new"))
	if len(c.chunks) != len(tb.chunks)+1 || c.used >= chunkSize {
		t.Errorf("the clone's first write left %d chunks, %d B of its current chunk used; want a fresh chunk beside the %d shared", len(c.chunks), c.used, len(tb.chunks))
	}
	if v, _ := tb.Get("key/0"); !bytes.Equal(v, val) {
		t.Errorf("the original's key/0 = %q after the clone's write, want its own value", v)
	}
	checkTable(t, tb)
	checkTable(t, c)
}

// TestClonesChurnConcurrently: two clones of one segment, each churned
// by a goroutine of its own while the original is read, share every
// chunk the original had but no byte any of them writes, so the race
// detector reports nothing, and each ends with its own last values.
func TestClonesChurnConcurrently(t *testing.T) {
	const keys, ops = 100, 3000
	tb := New(0)
	for i := 0; i < keys; i++ {
		tb.Put("k"+strconv.Itoa(i), []byte("v"))
	}
	// value is op i's value in clone g: i%300 bytes of g, so the churn
	// compacts and some values get a chunk of their own.
	value := func(g, i int) []byte { return bytes.Repeat([]byte{byte('a' + g)}, i%300) }
	clones := []*Segment{tb.Clone(), tb.Clone()}
	var wg, first sync.WaitGroup
	first.Add(len(clones))
	for g, c := range clones {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				c.Put("k"+strconv.Itoa(i%keys), value(g, i))
				if i == 0 {
					// Every clone makes its first write before any goes
					// on, so were two of them to write the same bytes,
					// the race detector would see both writers alive.
					first.Done()
					first.Wait()
				}
				if i%7 == 0 {
					c.Remove("k" + strconv.Itoa((i+1)%keys))
				}
			}
		}()
	}
	for i := 0; i < ops; i++ {
		if v, ok := tb.Get("k" + strconv.Itoa(i%keys)); !ok || string(v) != "v" {
			t.Fatalf("the original's k%d = %q, %v while its clones churn; want \"v\"", i%keys, v, ok)
		}
	}
	wg.Wait()
	for g, c := range clones {
		checkTable(t, c)
		// The last op on each key is a put: no key is removed after it.
		for i := ops - keys; i < ops; i++ {
			key := "k" + strconv.Itoa(i%keys)
			if v, ok := c.Get(key); !ok || !bytes.Equal(v, value(g, i)) {
				t.Errorf("clone %d: %s = %.12q, %v; want %.12q", g, key, v, ok, value(g, i))
			}
		}
	}
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

	tb := New(0)
	m := make(map[string]string)
	for _, k := range keys {
		tb.Put(k, val)
		m[k] = string(val)
	}
	var sink []byte
	var ssink string
	var found bool
	b.Run("table/get-hit", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sink, found = tb.Get(keys[i%n])
		}
	})
	b.Run("map/get-hit", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ssink, found = m[keys[i%n]]
		}
	})
	b.Run("table/get-miss", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sink, found = tb.Get(missing[i%n])
		}
	})
	b.Run("map/get-miss", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ssink, found = m[missing[i%n]]
		}
	})
	b.Run("table/overwrite", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tb.Put(keys[i%n], val)
		}
	})
	b.Run("map/overwrite", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m[keys[i%n]] = string(val)
		}
	})
	b.Run("table/insert-delete", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tb.Put(missing[i%n], val)
			tb.Remove(missing[i%n])
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
			tb.Put(keys[i%n], vals[i/n%2])
			if tb.dead < dead {
				compactions++
			}
		}
		b.ReportMetric(float64(compactions)/float64(b.N), "compactions/op")
	})
	_, _, _ = sink, ssink, found
}
