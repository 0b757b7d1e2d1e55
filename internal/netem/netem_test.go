package netem

import (
	"bytes"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func lossy() Schedule {
	return Schedule{
		Version:    Version,
		Seed:       7,
		DurationMs: 10_000,
		Links: []Rule{{
			Drop: 0.2, Dup: 0.1, DelayMs: 1, JitterMs: 3,
			Reorder: 0.25, ReorderMs: 20,
		}},
		Partitions: []Partition{{A: 1, B: 2, StartMs: 2000, EndMs: 5000, OneWay: true}},
		Procs:      []ProcFault{{Site: 3, AtMs: 3000, Op: OpKill}},
		WAL:        []WALFault{{Site: 2, FailAppend: 40}},
		Note:       "test schedule",
	}
}

func TestScheduleRoundTrip(t *testing.T) {
	s := lossy()
	b, err := s.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeSchedule(b)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := got.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != string(b2) {
		t.Fatalf("round trip not byte-identical:\n%s\nvs\n%s", b, b2)
	}
}

func TestDecodeRejectsBadSchedules(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Schedule)
		want string
	}{
		{"version", func(s *Schedule) { s.Version = "netem/v2" }, "version"},
		{"prob", func(s *Schedule) { s.Links[0].Drop = 1.5 }, "probabilities"},
		{"window", func(s *Schedule) { s.Links[0].StartMs, s.Links[0].EndMs = 50, 50 }, "window"},
		{"reorder", func(s *Schedule) { s.Links[0].ReorderMs = 0 }, "reorder"},
		{"partition-self", func(s *Schedule) { s.Partitions[0].B = 1 }, "differ"},
		{"oneway-wildcard", func(s *Schedule) { s.Partitions[0].B = 0 }, "one-way"},
		{"proc-op", func(s *Schedule) { s.Procs[0].Op = "pause" }, "unknown op"},
		{"wal-site", func(s *Schedule) { s.WAL[0].Site = 0 }, "bad site"},
	}
	for _, tc := range cases {
		s := lossy()
		tc.mut(&s)
		b, err := s.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := DecodeSchedule(b); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want mention of %q", tc.name, err, tc.want)
		}
	}
	if _, err := DecodeSchedule([]byte(`{"version":"netem/v1","seed":1,"bogus":2}`)); err == nil {
		t.Error("unknown field accepted")
	}
}

// A disk dies once: a second WAL fault for one site would silently
// replace the first in both drivers, so the validator refuses it. One
// per site stays fine.
func TestValidateRejectsSecondDiskDeath(t *testing.T) {
	s := lossy()
	s.WAL = []WALFault{{Site: 2, FailAppend: 40}, {Site: 3, FailAppend: 7}}
	if err := s.Validate(); err != nil {
		t.Fatalf("one death per site refused: %v", err)
	}
	s.WAL = append(s.WAL, WALFault{Site: 2, FailAppend: 90})
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "dies once") {
		t.Errorf("second death at site 2: err = %v, want it refused", err)
	}
}

// Two emulators over the same schedule and the same per-link datagram
// sequence make identical decisions — the replayability contract.
func TestEmulatorDeterministic(t *testing.T) {
	s := lossy()
	s.Partitions = nil
	clock := func() time.Duration { return 0 }
	a := NewEmulator(s, clock)
	b := NewEmulator(s, clock)
	pairs := [][2]uint32{{1, 2}, {2, 1}, {1, 3}, {3, 1}, {2, 3}, {3, 2}}
	varied := false
	for i := 0; i < 400; i++ {
		pr := pairs[i%len(pairs)]
		da, db := a.Decide(pr[0], pr[1]), b.Decide(pr[0], pr[1])
		if da != db {
			t.Fatalf("decision %d on %v diverged: %+v vs %+v", i, pr, da, db)
		}
		if da.Drop || da.Dup > 0 {
			varied = true
		}
	}
	if !varied {
		t.Fatal("schedule with 20%% drop produced no drops in 400 decisions")
	}
	if a.Counts() != b.Counts() {
		t.Fatalf("counts diverged: %+v vs %+v", a.Counts(), b.Counts())
	}
}

// Per-link streams are independent: interleaving traffic on other
// links does not change a link's decision sequence.
func TestEmulatorPerLinkStreamsIndependent(t *testing.T) {
	s := lossy()
	s.Partitions = nil
	clock := func() time.Duration { return 0 }
	solo := NewEmulator(s, clock)
	var want []Decision
	for i := 0; i < 100; i++ {
		want = append(want, solo.Decide(1, 2))
	}
	mixed := NewEmulator(s, clock)
	for i := 0; i < 100; i++ {
		mixed.Decide(2, 3) // interleaved noise on another link
		if got := mixed.Decide(1, 2); got != want[i] {
			t.Fatalf("decision %d changed under interleaving: %+v vs %+v", i, got, want[i])
		}
	}
}

func TestPartitionWindows(t *testing.T) {
	s := Schedule{Version: Version, Seed: 1, Partitions: []Partition{
		{A: 1, B: 2, StartMs: 1000, EndMs: 2000, OneWay: true},
		{A: 3, StartMs: 5000}, // isolate site 3 forever
	}}
	now := time.Duration(0)
	e := NewEmulator(s, func() time.Duration { return now })
	check := func(from, to uint32, wantDrop bool, why string) {
		t.Helper()
		if got := e.Decide(from, to).Drop; got != wantDrop {
			t.Errorf("%s: Decide(%d,%d).Drop = %v, want %v", why, from, to, got, wantDrop)
		}
	}
	check(1, 2, false, "before window")
	now = 1500 * time.Millisecond
	check(1, 2, true, "inside one-way window, cut direction")
	check(2, 1, false, "inside one-way window, reply direction")
	now = 2 * time.Second
	check(1, 2, false, "window closed at end_ms")
	now = 6 * time.Second
	check(3, 1, true, "isolated site sends")
	check(2, 3, true, "isolated site receives")
	check(1, 2, false, "bystander pair")
}

// The proxy forwards datagrams (with duplication) under a clean
// schedule and blackholes them under a partition, without parsing
// their bytes.
func TestProxyForwardAndCut(t *testing.T) {
	recv, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()

	s := Schedule{Version: Version, Seed: 1,
		Partitions: []Partition{{A: 1, B: 2, StartMs: 60_000}}}
	// The forwarding goroutine reads the clock concurrently with the
	// test advancing it.
	var now atomic.Int64
	p := NewProxy(NewEmulator(s, func() time.Duration { return time.Duration(now.Load()) }))
	defer p.Close()
	addr, err := p.Open(1, 2, recv.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	send, err := net.Dial("udp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer send.Close()

	if _, err := send.Write([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	recv.SetReadDeadline(time.Now().Add(2 * time.Second))
	n, _, err := recv.ReadFromUDP(buf)
	if err != nil || string(buf[:n]) != "hello" {
		t.Fatalf("forward: got %q, %v", buf[:n], err)
	}

	// Enter the partition window: the same pipe now blackholes.
	now.Store(int64(61 * time.Second))
	if _, err := send.Write([]byte("lost")); err != nil {
		t.Fatal(err)
	}
	recv.SetReadDeadline(time.Now().Add(200 * time.Millisecond))
	if n, _, err = recv.ReadFromUDP(buf); err == nil {
		t.Fatalf("partitioned datagram delivered: %q", buf[:n])
	}
	c := p.Counts()
	if c.Seen != 2 || c.Dropped != 1 || c.Cut != 1 {
		t.Fatalf("counts = %+v, want seen 2 dropped 1 cut 1", c)
	}
}

func TestProxyDupDeliversCopies(t *testing.T) {
	recv, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()

	// Dup probability just under 1 duplicates every datagram.
	s := Schedule{Version: Version, Seed: 1, Links: []Rule{{Dup: 0.999999}}}
	p := NewProxy(NewEmulator(s, func() time.Duration { return 0 }))
	defer p.Close()
	addr, err := p.Open(1, 2, recv.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	send, err := net.Dial("udp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer send.Close()
	if _, err := send.Write([]byte("twice")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	for i := 0; i < 2; i++ {
		recv.SetReadDeadline(time.Now().Add(2 * time.Second))
		n, _, err := recv.ReadFromUDP(buf)
		if err != nil || string(buf[:n]) != "twice" {
			t.Fatalf("copy %d: got %q, %v", i, buf[:n], err)
		}
	}
}

// FuzzDecodeSchedule feeds arbitrary bytes to the netem/v1 parser,
// seeded from every checked-in schedule (each of which must decode).
// It must never panic, and a schedule it accepts must re-encode and
// decode to an equal schedule — compared encoded, since an empty list
// and an absent one are the same schedule.
func FuzzDecodeSchedule(f *testing.F) {
	var files []string
	for _, dir := range []string{"../../cmd/camelot-chaos/testdata", "../../cmd/camelot-cluster/testdata"} {
		names, _ := filepath.Glob(filepath.Join(dir, "netem-*.json"))
		files = append(files, names...)
	}
	if len(files) == 0 {
		f.Fatal("no checked-in netem schedules found")
	}
	for _, name := range files {
		b, err := os.ReadFile(name)
		if err != nil {
			f.Fatal(err)
		}
		if _, err := DecodeSchedule(b); err != nil {
			f.Fatalf("%s: %v", name, err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		s, err := DecodeSchedule(in)
		if err != nil {
			return
		}
		b, err := s.Encode()
		if err != nil {
			t.Fatalf("accepted schedule does not encode: %v", err)
		}
		again, err := DecodeSchedule(b)
		if err != nil {
			t.Fatalf("re-encoded schedule refused: %v\n%s", err, b)
		}
		if b2, _ := again.Encode(); !bytes.Equal(b, b2) {
			t.Fatalf("round trip changed the schedule:\n%s\nvs\n%s", b, b2)
		}
	})
}
