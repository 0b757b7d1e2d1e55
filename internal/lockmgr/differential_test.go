package lockmgr

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"camelot/internal/rt"
	"camelot/internal/sim"
	"camelot/internal/tid"
)

// table is the exported surface Manager and the reference model share.
type table interface {
	SetParent(child, parent tid.TID)
	Acquire(t tid.TID, key string, mode Mode, timeout time.Duration) error
	Release(t tid.TID)
	OnChildCommit(child, parent tid.TID)
	HoldsAny(t tid.TID) bool
	Holds(t tid.TID, key string) (Mode, bool)
	Waits() (int, time.Duration)
}

var diffKeys = []string{"a", "b", "c", "d"}

// holdings renders every transaction's hold on every key, and whether
// it holds anything, in a fixed order.
func holdings(m table, txns []tid.TID) string {
	var b strings.Builder
	for _, t := range txns {
		fmt.Fprintf(&b, "%v any=%v", t, m.HoldsAny(t))
		for _, k := range diffKeys {
			if mode, ok := m.Holds(t, k); ok {
				fmt.Fprintf(&b, " %s:%v", k, mode)
			}
		}
		b.WriteString("; ")
	}
	return b.String()
}

// sameHoldings reports whether a and b agree on every transaction's
// hold on every key and on whether it holds anything.
func sameHoldings(a, b table, txns []tid.TID) bool {
	for _, t := range txns {
		if a.HoldsAny(t) != b.HoldsAny(t) {
			return false
		}
		for _, k := range diffKeys {
			m1, ok1 := a.Holds(t, k)
			m2, ok2 := b.Holds(t, k)
			if m1 != m2 || ok1 != ok2 {
				return false
			}
		}
	}
	return true
}

// TestDifferentialRandomSequences drives Manager and the reference
// model with the same seeded sequence of requests that never wait —
// shared and exclusive acquires (re-entries and upgrades among them,
// on a four-key space), nested transactions begun, committed into
// their parents and aborted, top-level releases — and compares every
// answer and every transaction's holdings after every step.
func TestDifferentialRandomSequences(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		got, want := New(rt.Real()), newRef(rt.Real())
		both := []table{got, want}

		var all []tid.TID               // every transaction begun, in order
		live := []tid.TID{}             // begun and not yet committed or released
		parent := map[tid.TID]tid.TID{} // nested ones only
		next := uint32(0)
		begin := func() tid.TID {
			next++
			if len(live) == 0 || rng.Intn(3) == 0 {
				t := txn(next)
				all, live = append(all, t), append(live, t)
				return t
			}
			p := live[rng.Intn(len(live))]
			c := child(p, next)
			parent[c] = p
			for _, m := range both {
				m.SetParent(c, p)
			}
			all, live = append(all, c), append(live, c)
			return c
		}
		end := func(t tid.TID) {
			live = slices.DeleteFunc(live, func(x tid.TID) bool { return x == t })
		}

		for step := 0; step < 150; step++ {
			var op string
			switch r := rng.Intn(10); {
			case r < 6 || len(live) == 0:
				var tx tid.TID
				if len(live) == 0 || rng.Intn(8) == 0 {
					tx = begin()
				} else {
					tx = live[rng.Intn(len(live))]
				}
				key := diffKeys[rng.Intn(len(diffKeys))]
				mode := Shared
				if rng.Intn(2) == 0 {
					mode = Exclusive
				}
				e1 := got.Acquire(tx, key, mode, 0)
				e2 := want.Acquire(tx, key, mode, 0)
				op = fmt.Sprintf("Acquire(%v, %s, %v)", tx, key, mode)
				if e1 != e2 {
					t.Fatalf("seed %d step %d: %s = %v, reference %v", seed, step, op, e1, e2)
				}
			case r < 7:
				begin()
				continue
			case r < 9:
				tx := live[rng.Intn(len(live))]
				p, nested := parent[tx]
				if !nested {
					continue
				}
				op = fmt.Sprintf("OnChildCommit(%v, %v)", tx, p)
				for _, m := range both {
					m.OnChildCommit(tx, p)
				}
				end(tx)
			default:
				tx := live[rng.Intn(len(live))]
				op = fmt.Sprintf("Release(%v)", tx)
				for _, m := range both {
					m.Release(tx)
				}
				end(tx)
			}
			if !sameHoldings(got, want, all) {
				t.Fatalf("seed %d step %d: after %s\n got  %s\n want %s",
					seed, step, op, holdings(got, all), holdings(want, all))
			}
		}
		for _, tx := range all {
			got.Release(tx)
		}
		if len(got.locks) != 0 || len(got.held) != 0 || len(got.parent) != 0 {
			t.Fatalf("seed %d: %d locks, %d key lists, %d parents left after every release",
				seed, len(got.locks), len(got.held), len(got.parent))
		}
	}
}

// blockedScenario runs one script of blocking requests against m on
// the simulation kernel k and returns what happened, one line per
// answer or observation, stamped with virtual time.
func blockedScenario(k *sim.Kernel, m table) []string {
	var out []string
	txns := []tid.TID{txn(1), txn(2), txn(3), txn(4), txn(5), txn(6), txn(7)}
	note := func(format string, args ...any) {
		out = append(out, fmt.Sprintf("%v ", time.Duration(k.Now()))+fmt.Sprintf(format, args...))
	}
	acquire := func(n int, key string, mode Mode, timeout time.Duration) {
		err := m.Acquire(txns[n-1], key, mode, timeout)
		note("T%d %s %v -> %v", n, key, mode, err)
	}
	wait := func(n int, key string, mode Mode, timeout time.Duration) {
		k.Go(fmt.Sprintf("T%d", n), func() { acquire(n, key, mode, timeout) })
	}
	release := func(n int) {
		m.Release(txns[n-1])
		k.Sleep(time.Millisecond)
		note("release T%d: %s", n, holdings(m, txns))
	}
	k.Go("script", func() {
		// Two shared holders; an exclusive request queues, and a later
		// shared request queues behind it rather than starve it.
		acquire(1, "a", Shared, 0)
		acquire(4, "a", Shared, 0)
		wait(2, "a", Exclusive, time.Second)
		k.Sleep(time.Millisecond)
		wait(3, "a", Shared, time.Second)
		k.Sleep(time.Millisecond)
		// An upgrade that cannot be granted at once waits at the tail
		// and times out; so does a shared request on another key.
		wait(1, "a", Exclusive, 50*time.Millisecond)
		acquire(5, "b", Exclusive, 0)
		wait(6, "b", Shared, 20*time.Millisecond)
		k.Sleep(60 * time.Millisecond)
		release(4)
		release(1) // T2's exclusive request is granted, FIFO
		acquire(2, "a", Shared, 0)
		release(2) // then T3's shared one
		// A holder's upgrade jumps a queued request on its lock.
		wait(7, "a", Exclusive, time.Second)
		k.Sleep(time.Millisecond)
		acquire(3, "a", Exclusive, 0)
		release(3) // T7 is granted
		release(5)
		release(7)
		n, total := m.Waits()
		note("waits %d total %v", n, total)
		k.Stop()
	})
	k.RunUntil(time.Minute)
	return out
}

// TestDifferentialBlockedWaiters runs one script of blocking requests
// against Manager and the reference model on the simulation kernel:
// FIFO order with no shared-over-exclusive starvation, an upgrade
// that jumps its lock's queue, an upgrade and a shared request that
// time out. Both must answer alike at the same virtual times.
func TestDifferentialBlockedWaiters(t *testing.T) {
	run := func(mk func(r rt.Runtime) table) []string {
		k := sim.New(1)
		out := blockedScenario(k, mk(k))
		if msg := k.Deadlocked(); msg != "" {
			t.Fatal(msg)
		}
		return out
	}
	got := run(func(r rt.Runtime) table { return New(r) })
	want := run(func(r rt.Runtime) table { return newRef(r) })
	if !slices.Equal(got, want) {
		t.Fatalf("Manager and the reference model differ:\n got\n  %s\n want\n  %s",
			strings.Join(got, "\n  "), strings.Join(want, "\n  "))
	}
	// The script's own expectations, in order, so the two cannot agree
	// on a scenario that exercised nothing.
	rest := got
	for _, line := range []string{
		"22ms T6 b S -> lockmgr: lock wait timed out",
		"52ms T1 a X -> lockmgr: lock wait timed out",
		"63ms T2 a X -> <nil>",
		"64ms T3 a S -> <nil>",
		"66ms T3 a X -> <nil>",
		"66ms T7 a X -> <nil>",
		"69ms waits 5 total 197ms",
	} {
		i := slices.Index(rest, line)
		if i < 0 {
			t.Fatalf("no %q in order in:\n  %s", line, strings.Join(got, "\n  "))
		}
		rest = rest[i+1:]
	}
}
