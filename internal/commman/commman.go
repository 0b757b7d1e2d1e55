// Package commman implements the communication manager: the process
// that forwards inter-site operation calls from applications to data
// servers, acts as a name service, and — its transaction-specific
// duty — spies on response messages to learn which sites a
// transaction has spread to (§3.1). That site list is merged into the
// coordinator's transaction manager, which is how the commit
// protocols know their subordinates.
//
// The RPC path reproduces the cost structure of §4.1:
//
//	client — CommMan — NetMsgServer — network — NetMsgServer — CommMan — server
//
// totaling 28.5 ms per call on the paper's hardware: 19.1 ms of
// NetMsgServer RPC, 2×1.5 ms of CommMan↔NetMsgServer IPC, and 3.2 ms
// of CommMan CPU at each site. Breakdown reports those components.
package commman

import (
	"errors"
	"fmt"
	"time"

	"camelot/internal/params"
	"camelot/internal/rt"
	"camelot/internal/server"
	"camelot/internal/tid"
	"camelot/internal/transport"
)

// RPC errors.
var (
	// ErrTimeout reports an operation call that got no response; the
	// caller "should eventually initiate the abort protocol".
	ErrTimeout = errors.New("commman: remote operation timed out")
	// ErrNoSuchServer reports a name-service miss.
	ErrNoSuchServer = errors.New("commman: no such server")
)

// Op selects the remote operation.
type Op uint8

// Remote operations.
const (
	OpRead Op = iota + 1
	OpWrite
)

// Request is a forwarded operation call.
type Request struct {
	Call   uint64
	Origin tid.SiteID
	TID    tid.TID
	Anc    []tid.TID // TID's ancestor chain, outermost first
	Server string
	Op     Op
	Key    string
	Value  []byte
}

// TraceKind names the forwarded call for trace timelines. Requests
// deliberately do not implement trace.TxPayload: per-family message
// counters measure the commit protocol's datagram budget, and
// operation RPCs are not part of it.
func (r *Request) TraceKind() string {
	if r.Op == OpWrite {
		return "RPC-WRITE"
	}
	return "RPC-READ"
}

// Response answers a Request. Sites is the spied-on list of sites
// used to produce the response, which the client-side communication
// manager merges into its transaction manager's knowledge.
type Response struct {
	Call  uint64
	Value []byte
	Err   string
	Sites []tid.SiteID
}

// TraceKind names the reply for trace timelines.
func (r *Response) TraceKind() string { return "RPC-REPLY" }

// Names is the cluster-wide name service (the NetMsgServer role): a
// client presents a string naming the desired service and learns
// where it runs.
type Names struct {
	mu      rt.Mutex
	entries map[string]tid.SiteID
}

// NewNames returns an empty name service.
func NewNames(r rt.Runtime) *Names {
	return &Names{mu: r.NewMutex(), entries: make(map[string]tid.SiteID)}
}

// Register advertises server name at site.
func (n *Names) Register(name string, site tid.SiteID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.entries[name] = site
}

// Lookup resolves a server name to its site.
func (n *Names) Lookup(name string) (tid.SiteID, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	s, ok := n.entries[name]
	return s, ok
}

// SiteTracker is the communication manager's hook into its local
// transaction manager: merging spied-on site lists.
type SiteTracker interface {
	AddSites(t tid.TID, sites []tid.SiteID)
}

// Manager is one site's communication manager.
type Manager struct {
	r     rt.Runtime
	site  tid.SiteID
	net   *transport.Network
	names *Names
	p     params.Params
	tm    SiteTracker

	kernel   *rt.CPU
	mu       rt.Mutex
	inflight map[uint64]*rt.Future[*Response]
	nextCall uint64
	servers  map[string]*server.Server
	timeout  time.Duration
}

// New creates a communication manager. timeout bounds each remote
// call; zero means 10× the round-trip estimate.
func New(r rt.Runtime, site tid.SiteID, net *transport.Network, names *Names,
	tm SiteTracker, p params.Params, kernel *rt.CPU, timeout time.Duration) *Manager {
	if timeout <= 0 {
		timeout = 10 * p.RemoteRPC
		if timeout <= 0 {
			timeout = time.Second
		}
	}
	return &Manager{
		r: r, site: site, net: net, names: names, p: p, tm: tm, kernel: kernel,
		mu:       r.NewMutex(),
		inflight: make(map[uint64]*rt.Future[*Response]),
		servers:  make(map[string]*server.Server),
		timeout:  timeout,
	}
}

// RegisterServer makes a local data server reachable by name from any
// site.
func (m *Manager) RegisterServer(s *server.Server) {
	m.mu.Lock()
	m.servers[s.Name()] = s
	m.mu.Unlock()
	m.names.Register(s.Name(), m.site)
}

// LocalServer returns the named local server, if any.
func (m *Manager) LocalServer(name string) (*server.Server, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s, ok := m.servers[name]
	return s, ok
}

// Call forwards one operation to the named server at dest and blocks
// for the response. On success it merges the response's site list
// into the local transaction manager — the spying of §3.1.
func (m *Manager) Call(dest tid.SiteID, req *Request) ([]byte, error) {
	fut := rt.NewFuture[*Response](m.r)
	m.mu.Lock()
	m.nextCall++
	req.Call = m.nextCall
	req.Origin = m.site
	m.inflight[req.Call] = fut
	m.mu.Unlock()

	// Client-side costs: application→CommMan IPC and CommMan CPU.
	m.charge(m.p.CommManIPC + m.p.CommManCPU)
	m.net.SendReliable(m.site, dest, req, m.p.NetMsgRPC/2)

	resp, ok := fut.WaitTimeout(m.timeout)
	m.mu.Lock()
	delete(m.inflight, req.Call)
	m.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s at %s", ErrTimeout, req.Server, dest)
	}
	if m.tm != nil && len(resp.Sites) > 0 {
		m.tm.AddSites(req.TID, resp.Sites)
	}
	if resp.Err != "" {
		return nil, errors.New(resp.Err)
	}
	return resp.Value, nil
}

// HandleRequest serves a forwarded operation at the destination site.
// It runs on the delivery thread.
func (m *Manager) HandleRequest(req *Request) {
	m.mu.Lock()
	srv := m.servers[req.Server]
	m.mu.Unlock()

	resp := &Response{Call: req.Call, Sites: []tid.SiteID{m.site}}
	if srv == nil {
		resp.Err = fmt.Sprintf("%v: %q at %s", ErrNoSuchServer, req.Server, m.site)
	} else {
		switch req.Op {
		case OpRead:
			v, err := srv.Read(req.TID, req.Anc, req.Key)
			if err != nil {
				resp.Err = err.Error()
			} else {
				resp.Value = v
			}
		case OpWrite:
			if err := srv.Write(req.TID, req.Anc, req.Key, req.Value); err != nil {
				resp.Err = err.Error()
			}
		default:
			resp.Err = "commman: bad op"
		}
	}
	// Server-side costs: CommMan CPU and CommMan↔NetMsgServer IPC.
	m.charge(m.p.CommManCPU + m.p.CommManIPC)
	m.net.SendReliable(m.site, req.Origin, resp, m.p.NetMsgRPC/2)
}

// HandleResponse resolves the waiting caller.
func (m *Manager) HandleResponse(resp *Response) {
	m.mu.Lock()
	fut := m.inflight[resp.Call]
	m.mu.Unlock()
	if fut != nil {
		fut.Set(resp)
	}
}

// Breakdown returns the §4.1 latency decomposition of one remote
// call under the current cost model, in the order the paper lists it.
func (m *Manager) Breakdown() []Component {
	return []Component{
		{"NetMsgServer-to-NetMsgServer RPC", m.p.NetMsgRPC},
		{"CommMan-NetMsgServer IPC (2 sites)", 2 * m.p.CommManIPC},
		{"CommMan CPU, client site", m.p.CommManCPU},
		{"CommMan CPU, server site", m.p.CommManCPU},
	}
}

// Component is one row of the RPC latency breakdown.
type Component struct {
	Name string
	Cost time.Duration
}

func (m *Manager) charge(d time.Duration) {
	if d > 0 {
		rt.Charge(m.r, m.kernel, d+m.p.KernelCPU)
	}
}
