// Package ctl is the control plane of a real Camelot deployment: a
// request/response protocol over TCP through which a driver process
// operates a camelot-node — begins transactions, reads and writes keys
// routed by the shard map, runs commit, and interrogates the site for
// the recovery oracle's invariants.
//
// The wire format is JSON lines, encoded by hand, byte-identical to
// the standard library's json.Marshal; keys matched exactly, unknown
// keys refused. One codec (codec.go) serves client and server: each
// request and response is one object on one line, and reflection-based
// JSON is too slow for a call the driver makes dozens of times per
// transaction.
//
// The control plane is deliberately not the transaction protocol:
// TranMan-to-TranMan traffic rides UDP datagrams (internal/transport)
// with no delivery guarantee, exactly as studied; the control
// connection is an ordinary reliable stream from the driver to each
// node, standing in for the application that would link against the
// Camelot library in a real deployment.
package ctl

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"sync"

	"camelot/camelot"
	"camelot/internal/det"
	"camelot/internal/server"
	"camelot/internal/tid"
	"camelot/internal/wire"
)

// Ops understood by a node's control server.
const (
	OpPing     = "ping"     // liveness; echoes the site id
	OpPeers    = "peers"    // install the site-id -> UDP-address map
	OpBegin    = "begin"    // begin a transaction coordinated here
	OpAddSites = "addsites" // declare remote participants (coordinator)
	OpCommit   = "commit"   // run the commitment protocol (coordinator)
	OpAbort    = "abort"    // abort the transaction
	OpOutcome  = "outcome"  // this site's resolved outcome for a family
	OpProbe    = "probe"    // begin/write/abort liveness probe
	OpStats    = "stats"    // transport, retry and WAL counters
	OpWriteKey = "writekey" // write Key=Val routed by the shard map under TID
	OpReadKey  = "readkey"  // read Key routed by the shard map under TID
	OpPeekKey  = "peekkey"  // committed value of Key routed by the shard map
	OpShardMap = "shardmap" // the node's serialized shard map
)

// Typed error codes carried in Response.Code, so drivers classify
// keyspace answers without parsing error strings. A request the site
// can never serve fails immediately with a routing code — loudly,
// instead of timing out; a read the site did serve, of a key with no
// value, answers CodeNoKey.
const (
	CodeNoShard   = "no-shard"   // key belongs to no placed shard
	CodeWrongSite = "wrong-site" // key's home shard is hosted elsewhere
	CodeNoKey     = "no-key"     // read under its lock, and it has no value
)

// Request is one control-plane request. TIDs travel as their two
// integer halves (Family, Seq); peer addresses as a map keyed by the
// decimal site id (JSON objects cannot have integer keys).
type Request struct {
	Op     string            `json:"op"`
	Family uint64            `json:"family,omitempty"`
	Seq    uint64            `json:"seq,omitempty"`
	Key    string            `json:"key,omitempty"`
	Val    []byte            `json:"val,omitempty"`
	Sites  []uint32          `json:"sites,omitempty"`
	Peers  map[string]string `json:"peers,omitempty"`
	// Protocol names the commit protocol ("2pc", "nb", "paxos"; empty
	// means "2pc"). Only meaningful on OpCommit.
	Protocol string `json:"protocol,omitempty"`
}

// Response answers one Request. Err is empty on success; Aborted
// distinguishes a clean transaction abort from other failures so the
// driver can classify outcomes without parsing error strings.
type Response struct {
	OK      bool   `json:"ok"`
	Err     string `json:"err,omitempty"`
	Aborted bool   `json:"aborted,omitempty"`
	Site    uint32 `json:"site,omitempty"`
	Family  uint64 `json:"family,omitempty"`
	Seq     uint64 `json:"seq,omitempty"`
	Val     []byte `json:"val,omitempty"`
	Present bool   `json:"present,omitempty"`
	Outcome string `json:"outcome,omitempty"`
	Stats   *Stats `json:"stats,omitempty"`
	// Code is the typed error class of a keyspace answer (CodeNoShard,
	// CodeWrongSite, CodeNoKey); empty otherwise.
	Code string `json:"code,omitempty"`
	// ShardMap is the node's canonical serialized shard map (OpShardMap).
	ShardMap []byte `json:"shardmap,omitempty"`
}

// Stats carries the node's transport counters plus the transaction
// manager's retry ledger — the numbers a fault driver pins to prove a
// storm stayed within its datagram budget.
type Stats struct {
	Sent     int    `json:"sent"`
	Recv     int    `json:"recv"`
	Dropped  int    `json:"dropped"`
	Oversize int    `json:"oversize"`
	Err      string `json:"err,omitempty"`
	// Retransmits counts datagrams re-sent by timer-driven retry
	// rounds; Inquiries counts outcome inquiries sent. Both are zero
	// in a fault-free run where every answer beats its timer.
	Retransmits int `json:"retransmits"`
	Inquiries   int `json:"inquiries"`
	// WALDeviceWrites counts the blocks the log made durable (fsyncs on
	// a file WAL); WALErr is the device error that fail-stopped the
	// log, empty while it is healthy — how a fault driver confirms its
	// programmed disk death fired.
	WALDeviceWrites int    `json:"wal_device_writes"`
	WALErr          string `json:"wal_err,omitempty"`
}

// maxLine bounds one protocol line; values are small keys and values,
// so a megabyte is generous.
const maxLine = 1 << 20

// lineScanner reads protocol lines from r, either direction: its buffer
// starts small — lines are tens of bytes — and grows to maxLine, past
// which Scan fails with bufio.ErrTooLong.
func lineScanner(r io.Reader) *bufio.Scanner {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 4096), maxLine)
	return sc
}

// Server serves the control protocol for one RealNode.
type Server struct {
	node *camelot.RealNode
	ln   net.Listener

	mu     sync.Mutex
	closed bool
}

// Serve starts a control server for node on addr (e.g.
// "127.0.0.1:0") and begins accepting connections.
func Serve(node *camelot.RealNode, addr string) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("ctl: listen %q: %w", addr, err)
	}
	s := &Server{node: node, ln: ln}
	//lint:rawgo host-side TCP accept loop; the control plane never runs under the simulation kernel
	go s.acceptLoop()
	return s, nil
}

// Addr returns the listener's address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops accepting connections. In-flight handlers finish on
// their own connections.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	return s.ln.Close()
}

func (s *Server) acceptLoop() {
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // closed
		}
		//lint:rawgo one goroutine per control connection; host-side only
		go s.serveConn(conn)
	}
}

func (s *Server) serveConn(conn net.Conn) {
	defer conn.Close() //nolint:errcheck // read loop below is the failure signal
	sc := lineScanner(conn)
	var out []byte // this connection's response line, reused
	for sc.Scan() {
		resp := s.serveLine(sc.Bytes())
		out = appendResponse(out[:0], &resp)
		if _, err := conn.Write(out); err != nil {
			return
		}
	}
}

// serveLine answers one request line, whatever bytes it holds: a line
// that does not decode is answered with an error like any other.
func (s *Server) serveLine(line []byte) Response {
	var req Request
	if err := decodeRequest(line, &req); err != nil {
		return Response{Err: fmt.Sprintf("bad request: %v", err)}
	}
	return s.handle(req)
}

func (s *Server) handle(req Request) Response {
	n := s.node
	t := tid.TID{Family: tid.FamilyID(req.Family), Seq: tid.Seq(req.Seq)}
	switch req.Op {
	case OpPing:
		return Response{OK: true, Site: uint32(n.ID())}

	case OpPeers:
		for _, k := range det.SortedKeys(req.Peers) {
			id, err := strconv.ParseUint(k, 10, 32)
			if err != nil {
				return Response{Err: fmt.Sprintf("bad site id %q", k)}
			}
			if camelot.SiteID(id) == n.ID() {
				continue
			}
			if err := n.AddPeer(camelot.SiteID(id), req.Peers[k]); err != nil {
				return Response{Err: err.Error()}
			}
		}
		return Response{OK: true}

	case OpBegin:
		bt, err := n.Begin()
		if err != nil {
			return Response{Err: err.Error()}
		}
		return Response{OK: true, Family: uint64(bt.Family), Seq: uint64(bt.Seq)}

	case OpAddSites:
		sites := make([]camelot.SiteID, 0, len(req.Sites))
		for _, id := range req.Sites {
			sites = append(sites, camelot.SiteID(id))
		}
		n.AddSites(t, sites)
		return Response{OK: true}

	case OpCommit:
		// An unknown name is refused before the commit starts: the
		// transaction stays active, and the caller may commit it
		// properly or abort it. Paxos runs at F=1, matching the chaos
		// explorer's configuration.
		proto, err := wire.ParseProtocol(req.Protocol)
		if err != nil {
			return Response{Err: err.Error()}
		}
		out, err := n.Commit(t, camelot.Options{Protocol: proto, PaxosF: 1})
		resp := Response{Outcome: out.String()}
		if err != nil {
			resp.Err = err.Error()
			resp.Aborted = errors.Is(err, camelot.ErrAborted)
			return resp
		}
		resp.OK = true
		return resp

	case OpAbort:
		if err := n.Abort(t); err != nil {
			return Response{Err: err.Error()}
		}
		return Response{OK: true}

	case OpOutcome:
		return Response{OK: true, Outcome: n.OutcomeOf(tid.FamilyID(req.Family)).String()}

	case OpWriteKey:
		if err := n.WriteKey(t, req.Key, req.Val); err != nil {
			return routeErrResponse(err)
		}
		return Response{OK: true}

	case OpReadKey:
		val, err := n.ReadKey(t, req.Key)
		if err != nil {
			return routeErrResponse(err)
		}
		return Response{OK: true, Val: val}

	case OpPeekKey:
		val, ok, err := n.PeekKey(req.Key)
		if err != nil {
			return routeErrResponse(err)
		}
		return Response{OK: true, Val: val, Present: ok}

	case OpShardMap:
		b, err := n.ShardMap().Marshal()
		if err != nil {
			return Response{Err: err.Error()}
		}
		return Response{OK: true, ShardMap: b}

	case OpProbe:
		if err := n.Probe(); err != nil {
			return Response{Err: err.Error()}
		}
		return Response{OK: true}

	case OpStats:
		sc := n.Counters()
		st := &Stats{Sent: sc.MsgsSent, Recv: sc.MsgsRecv, Dropped: sc.MsgsDropped, Oversize: sc.Oversize,
			Retransmits: sc.Retransmits, Inquiries: sc.Inquiries, WALDeviceWrites: sc.DeviceWrites}
		if err := n.Peer().Err(); err != nil {
			st.Err = err.Error()
		}
		if err := n.LogErr(); err != nil {
			st.WALErr = err.Error()
		}
		return Response{OK: true, Stats: st}

	default:
		return Response{Err: fmt.Sprintf("unknown op %q", req.Op)}
	}
}

// routeErrResponse classifies a keyspace failure into its typed code:
// a routing rejection, so the driver rejects loudly instead of retrying
// or timing out, or a read of a key with no value, so a prober tells
// "absent" from "locked"; other errors pass through untyped.
func routeErrResponse(err error) Response {
	resp := Response{Err: err.Error()}
	switch {
	case errors.Is(err, camelot.ErrNoShard):
		resp.Code = CodeNoShard
	case errors.Is(err, camelot.ErrWrongSite):
		resp.Code = CodeWrongSite
	case errors.Is(err, server.ErrNoSuchKey):
		resp.Code = CodeNoKey
	}
	return resp
}

// OutcomeFromString parses a Response.Outcome back into the wire type.
func OutcomeFromString(s string) wire.Outcome {
	switch s {
	case wire.OutcomeCommit.String():
		return wire.OutcomeCommit
	case wire.OutcomeAbort.String():
		return wire.OutcomeAbort
	}
	return wire.OutcomeUnknown
}
