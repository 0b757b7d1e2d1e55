package wal

import (
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"camelot/internal/rt"
	"camelot/internal/sim"
)

// The log owns no thread: without a flusher, Open starts no goroutine
// and Close leaves none behind.
func TestLogStartsNoThread(t *testing.T) {
	before := runtime.NumGoroutine()
	l := Open(rt.Real(), NewMemStore(), Config{GroupCommit: true})
	if got := runtime.NumGoroutine(); got > before {
		t.Errorf("Open started %d goroutine(s)", got-before)
	}
	lsn, _ := l.Append(&Record{Type: RecCommit, TID: testTID(1)})
	if err := l.Force(lsn); err != nil {
		t.Fatalf("Force: %v", err)
	}
	l.Close()
	if got := runtime.NumGoroutine(); got > before {
		t.Errorf("Close left %d goroutine(s)", got-before)
	}
}

// sleepyStore holds every Append for a fixed stretch of real time, so
// forcers pile up behind the write in flight.
type sleepyStore struct {
	Store
	d time.Duration
}

func (s sleepyStore) Append(b []byte) error {
	time.Sleep(s.d)
	return s.Store.Append(b)
}

// Forcers on the real runtime share device writes: whoever finds the
// device idle writes everything appended so far, and the others wait
// for that write or the next. Every forced record is in the file.
func TestConcurrentForcersShareWritesOnFile(t *testing.T) {
	const forcers, each = 16, 20
	path := filepath.Join(t.TempDir(), "wal")
	fs, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	l := Open(rt.Real(), sleepyStore{fs, time.Millisecond}, Config{GroupCommit: true})
	var wg sync.WaitGroup
	for g := 0; g < forcers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				lsn, err := l.Append(&Record{Type: RecCommit, TID: testTID(uint32(g*each + i))})
				if err == nil {
					err = l.Force(lsn)
				}
				if err != nil {
					t.Errorf("forcer %d: %v", g, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if w := l.DeviceWrites(); w >= forcers*each {
		t.Errorf("%d device writes for %d forces: no write was shared", w, forcers*each)
	}
	l.Close()
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}

	fs, err = OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	recs, err := Open(rt.Real(), fs, Config{}).Records()
	if err != nil {
		t.Fatal(err)
	}
	seen := make([]bool, forcers*each)
	for _, r := range recs {
		seen[r.TID.Family.Counter()] = true
	}
	for i, ok := range seen {
		if !ok {
			t.Errorf("forced record %d is not in the reopened log (%d records)", i, len(recs))
		}
	}
}

// The flusher's ticks are a fixed interval apart, whatever its own
// writes cost: a lazy record appended as the first flush lands is
// flushed at the second tick after that (100 ms is too young), not a
// full interval after the first write returned.
func TestFlusherKeepsItsTicks(t *testing.T) {
	k := sim.New(1)
	k.Go("main", func() {
		l := Open(k, NewMemStore(), Config{
			ForceLatency:  15 * time.Millisecond,
			FlushInterval: 50 * time.Millisecond,
		})
		defer l.Close()
		for i, want := range []time.Duration{65 * time.Millisecond, 165 * time.Millisecond} {
			lsn, _ := l.Append(&Record{Type: RecCommit, TID: testTID(uint32(i + 1))})
			if err := l.WaitDurable(lsn); err != nil {
				t.Fatalf("WaitDurable: %v", err)
			}
			if got := k.Now(); got != want {
				t.Errorf("lazy record %d durable at %v, want %v (tick %v + the write)", i+1, got, want, want-15*time.Millisecond)
			}
		}
	})
	k.Run()
}

// BenchmarkForce times Append+Force over a FileStore with group
// commit, from one goroutine and from many, and reports how many
// device writes (fsyncs) each force cost.
func BenchmarkForce(b *testing.B) {
	run := func(b *testing.B, body func(l *Log)) {
		fs, err := OpenFileStore(filepath.Join(b.TempDir(), "wal"))
		if err != nil {
			b.Fatal(err)
		}
		defer fs.Close()
		l := Open(rt.Real(), fs, Config{GroupCommit: true})
		defer l.Close()
		b.ResetTimer()
		body(l)
		b.ReportMetric(float64(l.DeviceWrites())/float64(b.N), "writes/force")
	}
	force := func(b *testing.B, l *Log) {
		lsn, err := l.Append(&Record{Type: RecCommit, TID: testTID(1)})
		if err == nil {
			err = l.Force(lsn)
		}
		if err != nil {
			b.Error(err)
		}
	}
	b.Run("serial", func(b *testing.B) {
		run(b, func(l *Log) {
			for i := 0; i < b.N; i++ {
				force(b, l)
			}
		})
	})
	b.Run("parallel", func(b *testing.B) {
		run(b, func(l *Log) {
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					force(b, l)
				}
			})
		})
	})
}
