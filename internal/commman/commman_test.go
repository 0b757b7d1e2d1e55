package commman

import (
	"errors"
	"testing"
	"time"

	"camelot/internal/params"
	"camelot/internal/rt"
	"camelot/internal/sim"
	"camelot/internal/tid"
	"camelot/internal/transport"
	"camelot/internal/wal"

	srv "camelot/internal/server"
)

// recordingTracker captures AddSites calls.
type recordingTracker struct {
	added map[tid.TID][]tid.SiteID
}

func (r *recordingTracker) AddSites(t tid.TID, sites []tid.SiteID) {
	if r.added == nil {
		r.added = make(map[tid.TID][]tid.SiteID)
	}
	r.added[t] = append(r.added[t], sites...)
}

type acceptAll struct{}

func (acceptAll) Join(t tid.TID, anc []tid.TID, p srv.Participant) error { return nil }

type rig struct {
	k       *sim.Kernel
	net     *transport.Network
	names   *Names
	client  *Manager
	server  *Manager
	tracker *recordingTracker
	remote  *srv.Server
}

func newRig(p params.Params) *rig {
	k := sim.New(1)
	r := &rig{
		k:       k,
		net:     transport.NewNetwork(k, transport.Config{}),
		tracker: &recordingTracker{},
	}
	r.names = NewNames(k)
	r.client = New(k, 1, r.net, r.names, r.tracker, p, nil, 100*time.Millisecond)
	r.server = New(k, 2, r.net, r.names, nil, p, nil, 100*time.Millisecond)
	log := wal.Open(k, wal.NewMemStore(), wal.Config{})
	r.remote = srv.New(k, "store", acceptAll{}, log, srv.Config{LockTimeout: 50 * time.Millisecond, Params: p})
	r.server.RegisterServer(r.remote)
	register := func(m *Manager, id tid.SiteID) {
		r.net.Register(id, func(d transport.Datagram) {
			switch pl := d.Payload.(type) {
			case *Request:
				m.HandleRequest(pl)
			case *Response:
				m.HandleResponse(pl)
			}
		})
	}
	register(r.client, 1)
	register(r.server, 2)
	return r
}

func (r *rig) run(t *testing.T, fn func()) {
	t.Helper()
	r.k.Go("test", func() {
		fn()
		r.k.Stop()
	})
	r.k.RunUntil(time.Minute)
	if msg := r.k.Deadlocked(); msg != "" {
		t.Fatal(msg)
	}
}

func txn(n uint32) tid.TID { return tid.Top(tid.MakeFamily(1, n)) }

func TestNameService(t *testing.T) {
	r := newRig(params.Fast())
	if site, ok := r.names.Lookup("store"); !ok || site != 2 {
		t.Fatalf("Lookup(store) = %v, %v; want site2", site, ok)
	}
	if _, ok := r.names.Lookup("missing"); ok {
		t.Fatal("Lookup(missing) succeeded")
	}
}

func TestRemoteWriteAndRead(t *testing.T) {
	r := newRig(params.Fast())
	r.run(t, func() {
		if _, err := r.client.Call(2, &Request{
			TID: txn(1), Server: "store", Op: OpWrite, Key: "k", Value: []byte("v"),
		}); err != nil {
			t.Fatalf("write call: %v", err)
		}
		got, err := r.client.Call(2, &Request{
			TID: txn(1), Server: "store", Op: OpRead, Key: "k",
		})
		if err != nil || string(got) != "v" {
			t.Fatalf("read call = %q, %v", got, err)
		}
	})
}

func TestResponseCarriesSiteListToTracker(t *testing.T) {
	r := newRig(params.Fast())
	r.run(t, func() {
		r.client.Call(2, &Request{TID: txn(1), Server: "store", Op: OpWrite, Key: "k", Value: []byte("v")}) //nolint:errcheck
		sites := r.tracker.added[txn(1)]
		if len(sites) != 1 || sites[0] != 2 {
			t.Fatalf("tracker saw %v, want [site2] — the CommMan spying is broken", sites)
		}
	})
}

func TestUnknownServerReturnsError(t *testing.T) {
	r := newRig(params.Fast())
	r.run(t, func() {
		_, err := r.client.Call(2, &Request{TID: txn(1), Server: "nope", Op: OpRead, Key: "k"})
		if err == nil {
			t.Fatal("call to unknown server succeeded")
		}
	})
}

func TestServerErrorPropagates(t *testing.T) {
	r := newRig(params.Fast())
	r.run(t, func() {
		_, err := r.client.Call(2, &Request{TID: txn(1), Server: "store", Op: OpRead, Key: "absent"})
		if err == nil {
			t.Fatal("read of absent key succeeded remotely")
		}
	})
}

func TestCallTimesOutWhenSiteDown(t *testing.T) {
	r := newRig(params.Fast())
	r.run(t, func() {
		r.net.SetDown(2, true)
		start := r.k.Now()
		_, err := r.client.Call(2, &Request{TID: txn(1), Server: "store", Op: OpRead, Key: "k"})
		if !errors.Is(err, ErrTimeout) {
			t.Fatalf("call to dead site = %v, want ErrTimeout", err)
		}
		if waited := r.k.Now() - start; waited != 100*time.Millisecond {
			t.Fatalf("timed out after %v, want the 100ms budget", waited)
		}
	})
}

func TestRPCChargesPaperCosts(t *testing.T) {
	p := params.Paper()
	r := newRig(p)
	r.run(t, func() {
		// Seed a value (cost not measured).
		r.client.Call(2, &Request{TID: txn(1), Server: "store", Op: OpWrite, Key: "k", Value: []byte("v")}) //nolint:errcheck
		start := r.k.Now()
		if _, err := r.client.Call(2, &Request{TID: txn(1), Server: "store", Op: OpRead, Key: "k"}); err != nil {
			t.Fatalf("call: %v", err)
		}
		elapsed := time.Duration(r.k.Now() - start)
		// 2×(CommManIPC + CommManCPU) + NetMsgRPC + server-side costs
		// (lock + CPU) ≈ 28.5 ms + data access.
		want := 2*(p.CommManIPC+p.CommManCPU) + p.NetMsgRPC + p.GetLock + p.ServerCPU
		if elapsed != want {
			t.Fatalf("remote call took %v, want %v", elapsed, want)
		}
	})
}

func TestBreakdownSumsToPaperTotal(t *testing.T) {
	r := newRig(params.Paper())
	var total time.Duration
	for _, c := range r.client.Breakdown() {
		total += c.Cost
	}
	if total != 28500*time.Microsecond {
		t.Fatalf("breakdown total = %v, want 28.5ms", total)
	}
}

func TestLocalServerLookup(t *testing.T) {
	r := newRig(params.Fast())
	if _, ok := r.server.LocalServer("store"); !ok {
		t.Fatal("LocalServer(store) not found at its own site")
	}
	if _, ok := r.client.LocalServer("store"); ok {
		t.Fatal("LocalServer(store) found at the wrong site")
	}
}

// Compile-time check that the tracker interface matches core's usage.
var _ SiteTracker = (*recordingTracker)(nil)
var _ rt.Runtime = (*sim.Kernel)(nil)
