package transport

import (
	"testing"
	"time"

	"camelot/internal/rt"
	"camelot/internal/sim"
	"camelot/internal/stats"
	"camelot/internal/tid"
	"camelot/internal/trace"
)

func cfg() Config {
	return Config{Latency: 10 * time.Millisecond, SendCycle: 1700 * time.Microsecond}
}

// counted builds a network counting into a ledger the test can read.
// The tests' bare string payloads are not transaction-manager traffic,
// so the ledger counts their sends as RPCs and their receipts not at
// all; drops count whatever they carried.
func counted(k *sim.Kernel, c Config) (*Network, *trace.Collector) {
	c.Trace = trace.NewCounters()
	return NewNetwork(k, c), c.Trace
}

func TestSendDeliversWithLatency(t *testing.T) {
	k := sim.New(1)
	n := NewNetwork(k, cfg())
	var at rt.Time
	var got Datagram
	n.Register(2, func(d Datagram) { at, got = k.Now(), d })
	k.Go("main", func() { n.Send(1, 2, "hello") })
	k.Run()
	// One send cycle + one-way latency.
	if want := 11700 * time.Microsecond; at != want {
		t.Errorf("delivered at %v, want %v", at, want)
	}
	if got.From != 1 || got.To != 2 || got.Payload != "hello" {
		t.Errorf("datagram = %+v", got)
	}
}

func TestSerialSendsSpacedBySendCycle(t *testing.T) {
	k := sim.New(1)
	n := NewNetwork(k, cfg())
	var arrivals []rt.Time
	for s := tid.SiteID(2); s <= 4; s++ {
		n.Register(s, func(d Datagram) { arrivals = append(arrivals, k.Now()) })
	}
	k.Go("main", func() { n.SendAll(1, []tid.SiteID{2, 3, 4}, "prepare") })
	k.Run()
	if len(arrivals) != 3 {
		t.Fatalf("delivered %d datagrams, want 3", len(arrivals))
	}
	// "The third prepare message is sent about 3.4ms after the first."
	if gap := arrivals[2] - arrivals[0]; gap != 3400*time.Microsecond {
		t.Errorf("first-to-third gap = %v, want 3.4ms", gap)
	}
}

func TestMulticastSingleCycle(t *testing.T) {
	k := sim.New(1)
	n := NewNetwork(k, cfg())
	var arrivals []rt.Time
	for s := tid.SiteID(2); s <= 4; s++ {
		n.Register(s, func(d Datagram) { arrivals = append(arrivals, k.Now()) })
	}
	k.Go("main", func() { n.Multicast(1, []tid.SiteID{2, 3, 4}, "prepare") })
	k.Run()
	if len(arrivals) != 3 {
		t.Fatalf("delivered %d datagrams, want 3", len(arrivals))
	}
	for _, a := range arrivals {
		if a != arrivals[0] {
			t.Fatalf("multicast arrivals not simultaneous: %v", arrivals)
		}
	}
}

func TestMulticastReducesArrivalSpread(t *testing.T) {
	// With jitter enabled, unicast fan-out draws jitter per datagram
	// while multicast shares one draw, so the spread of last-arrival
	// times across trials must be smaller for multicast — the §4.2
	// variance observation.
	spread := func(multicast bool) float64 {
		last := &stats.Sample{}
		for trial := 0; trial < 200; trial++ {
			k := sim.New(int64(trial))
			c := cfg()
			c.Jitter = 8 * time.Millisecond
			n := NewNetwork(k, c)
			var latest rt.Time
			for s := tid.SiteID(2); s <= 4; s++ {
				n.Register(s, func(d Datagram) {
					if k.Now() > latest {
						latest = k.Now()
					}
				})
			}
			k.Go("main", func() {
				if multicast {
					n.Multicast(1, []tid.SiteID{2, 3, 4}, "p")
				} else {
					n.SendAll(1, []tid.SiteID{2, 3, 4}, "p")
				}
			})
			k.Run()
			last.AddDuration(time.Duration(latest))
		}
		return last.StdDev()
	}
	uni, multi := spread(false), spread(true)
	if multi >= uni {
		t.Errorf("multicast stddev %.2f not below unicast %.2f", multi, uni)
	}
}

func TestCrashedSiteReceivesNothing(t *testing.T) {
	k := sim.New(1)
	n := NewNetwork(k, cfg())
	got := 0
	n.Register(2, func(d Datagram) { got++ })
	k.Go("main", func() {
		n.SetDown(2, true)
		n.Send(1, 2, "x")
		k.Sleep(50 * time.Millisecond)
		n.SetDown(2, false)
		n.Send(1, 2, "y")
	})
	k.Run()
	if got != 1 {
		t.Errorf("delivered %d datagrams, want 1 (after recovery only)", got)
	}
}

func TestCrashedSenderSendsNothing(t *testing.T) {
	k := sim.New(1)
	n := NewNetwork(k, cfg())
	got := 0
	n.Register(2, func(d Datagram) { got++ })
	k.Go("main", func() {
		n.SetDown(1, true)
		n.Send(1, 2, "x")
	})
	k.Run()
	if got != 0 {
		t.Errorf("crashed sender delivered %d datagrams", got)
	}
}

func TestInFlightDatagramLostOnCrash(t *testing.T) {
	k := sim.New(1)
	n := NewNetwork(k, cfg())
	got := 0
	n.Register(2, func(d Datagram) { got++ })
	k.Go("main", func() {
		n.Send(1, 2, "x")
		k.Sleep(5 * time.Millisecond) // datagram is mid-flight
		n.SetDown(2, true)
	})
	k.Run()
	if got != 0 {
		t.Errorf("in-flight datagram survived destination crash")
	}
}

func TestPartitionCutsBothDirections(t *testing.T) {
	k := sim.New(1)
	n := NewNetwork(k, cfg())
	got := 0
	n.Register(1, func(d Datagram) { got++ })
	n.Register(2, func(d Datagram) { got++ })
	n.Register(3, func(d Datagram) { got++ })
	k.Go("main", func() {
		n.SetPartition(1, 2, true)
		n.Send(1, 2, "a")
		n.Send(2, 1, "b")
		n.Send(1, 3, "c") // unaffected link
		k.Sleep(50 * time.Millisecond)
		n.SetPartition(1, 2, false)
		n.Send(1, 2, "d")
	})
	k.Run()
	if got != 2 {
		t.Errorf("delivered %d datagrams, want 2 (cross-partition lost)", got)
	}
}

func TestLossRateDropsRoughlyThatFraction(t *testing.T) {
	k := sim.New(1)
	c := cfg()
	c.LossRate = 0.3
	n, tr := counted(k, c)
	got := 0
	n.Register(2, func(d Datagram) { got++ })
	k.Go("main", func() {
		for i := 0; i < 1000; i++ {
			n.Send(1, 2, i)
		}
	})
	k.Run()
	if got < 600 || got > 800 {
		t.Errorf("delivered %d of 1000 at 30%% loss, want ≈700", got)
	}
	if sc := tr.Site(1); sc.RPCs != 1000 || got+sc.MsgsDropped != sc.RPCs {
		t.Errorf("ledger inconsistent: sent=%d delivered=%d dropped=%d", sc.RPCs, got, sc.MsgsDropped)
	}
}

func TestUnregisteredDestinationDrops(t *testing.T) {
	k := sim.New(1)
	n, tr := counted(k, cfg())
	k.Go("main", func() { n.Send(1, 99, "void") })
	k.Run()
	if dropped := tr.Site(1).MsgsDropped; dropped != 1 {
		t.Errorf("dropped=%d, want 1", dropped)
	}
}

func TestHandlerReplacementOnRecovery(t *testing.T) {
	k := sim.New(1)
	n := NewNetwork(k, cfg())
	old, new_ := 0, 0
	n.Register(2, func(d Datagram) { old++ })
	k.Go("main", func() {
		n.Register(2, func(d Datagram) { new_++ })
		n.Send(1, 2, "x")
	})
	k.Run()
	if old != 0 || new_ != 1 {
		t.Errorf("old handler got %d, new got %d; want 0/1", old, new_)
	}
}

// Dup applies to datagrams only: a reliable send arrives once. The
// sent/delivered/dropped ledger balances with the network-made copies,
// including one lost at a crashed destination.
func TestShaperDupDeliversExtraCopies(t *testing.T) {
	k := sim.New(1)
	n, tr := counted(k, cfg())
	var got []Datagram
	n.Register(2, func(d Datagram) { got = append(got, d) })
	n.SetShaper(func(from, to tid.SiteID, payload any, reliable bool) Shape {
		return Shape{Dup: 2}
	})
	k.Go("main", func() {
		n.Send(1, 2, "x")
		n.SendReliable(1, 2, "rpc", time.Millisecond)
		n.Send(1, 3, "nobody home")
	})
	k.Run()
	if len(got) != 4 {
		t.Fatalf("delivered %d copies, want 4 (original + 2 dups, and the RPC once)", len(got))
	}
	sent, delivered, dropped := tr.Site(1).RPCs, len(got), tr.Site(1).MsgsDropped
	if sent != 7 || delivered != 4 || dropped != 3 || sent != delivered+dropped {
		t.Errorf("ledger = (%d,%d,%d), want (7,4,3)", sent, delivered, dropped)
	}
}

// Delay applies to datagrams only: a delayed datagram arrives behind a
// later one, while a reliable send keeps its own latency.
func TestShaperDelayReordersAgainstLaterSends(t *testing.T) {
	k := sim.New(1)
	n := NewNetwork(k, cfg())
	var order []string
	var rpcAt rt.Time
	n.Register(2, func(d Datagram) {
		order = append(order, d.Payload.(string))
		if d.Payload == "rpc" {
			rpcAt = k.Now()
		}
	})
	n.SetShaper(func(from, to tid.SiteID, payload any, reliable bool) Shape {
		if payload == "first" || payload == "rpc" {
			return Shape{Delay: 50 * time.Millisecond}
		}
		return Shape{}
	})
	k.Go("main", func() {
		n.Send(1, 2, "first")
		n.Send(1, 2, "second")
		n.SendReliable(1, 2, "rpc", time.Millisecond)
	})
	k.Run()
	if len(order) != 3 || order[0] != "rpc" || order[1] != "second" || order[2] != "first" {
		t.Fatalf("arrival order = %v, want [rpc second first]", order)
	}
	if rpcAt != rt.Time(time.Millisecond) {
		t.Errorf("rpc arrived at %v, want its 1ms latency: Delay shapes datagrams only", rpcAt)
	}
}

// Drop applies to reliable and unreliable traffic alike, and the hook
// sees every send — a crashed sender's too — before any other check.
func TestShaperDropCounts(t *testing.T) {
	k := sim.New(1)
	n, tr := counted(k, cfg())
	delivered, seen := 0, 0
	n.Register(2, func(d Datagram) { delivered++ })
	n.SetShaper(func(from, to tid.SiteID, payload any, reliable bool) Shape {
		seen++
		return Shape{Drop: payload != "from the dead"}
	})
	k.Go("main", func() {
		n.Send(1, 2, "x")
		n.SendReliable(1, 2, "rpc", time.Millisecond)
		n.SetDown(3, true)
		n.Send(3, 2, "from the dead")
		n.SendReliable(3, 2, "from the dead", time.Millisecond)
	})
	k.Run()
	if delivered != 0 {
		t.Fatalf("%d dropped datagrams were delivered", delivered)
	}
	if seen != 4 {
		t.Errorf("hook saw %d sends, want all 4", seen)
	}
	if dropped := tr.Site(1).MsgsDropped + tr.Site(3).MsgsDropped; dropped != 4 {
		t.Errorf("dropped = %d, want 4", dropped)
	}
}
