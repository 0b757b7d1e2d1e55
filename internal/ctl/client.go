package ctl

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"sync"
	"time"

	"camelot/camelot"
	"camelot/internal/server"
	"camelot/internal/tid"
	"camelot/internal/wire"
)

// ErrAborted mirrors camelot.ErrAborted across the control plane: a
// Commit that ended in a clean abort reports it as this error, so
// drivers classify outcomes the same way an in-process client would.
var ErrAborted = camelot.ErrAborted

// ErrUnavailable reports that the node did not answer within the
// call's deadline (or the connection died). It is the typed,
// bounded-time verdict a driver gets from a frozen or dead node —
// instead of hanging on a stream that will never produce bytes.
// errors.Is(err, ErrUnavailable) classifies it; Reconnect recovers
// the client once the node is back.
var ErrUnavailable = errors.New("ctl: node unavailable")

// Typed keyspace errors, mirrored across the control plane from the
// data tier (Response.Code carries the class; the client rehydrates it
// so errors.Is works driver-side exactly as it does in-process).
var (
	// ErrNoShard reports a key no shard map entry covers.
	ErrNoShard = camelot.ErrNoShard
	// ErrWrongSite reports a key whose home shard is hosted at a
	// different site than the one addressed.
	ErrWrongSite = camelot.ErrWrongSite
	// ErrNoSuchKey reports a read, made under the key's lock, of a key
	// that has no value.
	ErrNoSuchKey = server.ErrNoSuchKey
)

// codeError rehydrates a Response's typed error class.
func codeError(resp Response) error {
	switch resp.Code {
	case CodeNoShard:
		return fmt.Errorf("%w: %s", ErrNoShard, resp.Err)
	case CodeWrongSite:
		return fmt.Errorf("%w: %s", ErrWrongSite, resp.Err)
	case CodeNoKey:
		return fmt.Errorf("%w: %s", ErrNoSuchKey, resp.Err)
	}
	return nil
}

// Client is one driver-side control connection to a camelot-node.
// Requests on one Client are serialized; use one Client per
// concurrent stream of work.
//
// A Client may carry a per-call deadline, set by DialTimeout. When a
// call times out
// the connection is poisoned — a late response would desynchronize
// the request/response framing — so every subsequent call fails fast
// with ErrUnavailable until Reconnect succeeds.
type Client struct {
	addr string

	mu      sync.Mutex
	conn    net.Conn
	sc      *bufio.Scanner // response lines off conn
	timeout time.Duration
	broken  error  // sticky transport failure; cleared by Reconnect
	line    []byte // the request line being sent, reused
}

// DialTimeout connects with a default per-call deadline (0 keeps
// calls unbounded). The deadline also bounds the dial itself.
func DialTimeout(addr string, timeout time.Duration) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("ctl: dial %s: %w: %v", addr, ErrUnavailable, err)
	}
	return &Client{
		addr:    addr,
		conn:    conn,
		sc:      lineScanner(conn),
		timeout: timeout,
	}, nil
}

// Reconnect redials the node and replaces a poisoned connection,
// keeping the configured default deadline. The driver calls it after
// an ErrUnavailable once it believes the node is back (restarted, or
// SIGCONTed).
func (c *Client) Reconnect() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	conn, err := net.DialTimeout("tcp", c.addr, c.timeout)
	if err != nil {
		return fmt.Errorf("ctl: reconnect %s: %w: %v", c.addr, ErrUnavailable, err)
	}
	if c.conn != nil {
		c.conn.Close() //nolint:errcheck // already poisoned
	}
	c.conn = conn
	c.sc = lineScanner(conn)
	c.broken = nil
	return nil
}

// Broken reports whether the connection is poisoned — a prior call
// timed out or the stream died — and needs Reconnect before it can
// carry requests again.
func (c *Client) Broken() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.broken != nil
}

// Close closes the connection and marks the client broken: any later
// Do fails typed (ErrUnavailable) instead of writing to a closed
// conn. It holds c.mu the whole way — Reconnect swaps c.conn under
// the same lock, and the old unlocked read raced it. Nil-safe and
// idempotent; Reconnect may still revive the client afterwards.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	conn := c.conn
	c.conn = nil
	c.sc = nil
	c.broken = fmt.Errorf("%w: client closed", ErrUnavailable)
	if conn == nil {
		return nil
	}
	return conn.Close()
}

// Do performs one request/response exchange under the client's
// deadline (if any). A transport failure or timeout (node killed or
// frozen mid-call, say) is returned as an error wrapping
// ErrUnavailable; a protocol-level failure arrives in Response.Err.
func (c *Client) Do(req Request) (Response, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.broken != nil {
		return Response{}, fmt.Errorf("ctl: %s after earlier failure: %w", req.Op, c.broken)
	}
	c.line = appendRequest(c.line[:0], &req)
	if c.timeout > 0 {
		deadline := time.Now().Add(c.timeout) //lint:walltime host-side control-connection deadline; the control plane never runs under the simulation kernel
		if err := c.conn.SetDeadline(deadline); err != nil {
			return Response{}, c.poison(req.Op, err)
		}
	}
	if _, err := c.conn.Write(c.line); err != nil {
		return Response{}, c.poison(req.Op, err)
	}
	if !c.sc.Scan() {
		// Whatever stopped the scan — the peer hung up, the deadline
		// passed, or the node wrote a line longer than the protocol bound
		// (maxLine), whose remainder is still in the stream so every later
		// exchange would read from mid-line — the connection can carry no
		// further exchange and is poisoned until Reconnect replaces it.
		err := c.sc.Err()
		switch {
		case err == nil:
			err = io.EOF
		case errors.Is(err, bufio.ErrTooLong):
			err = fmt.Errorf("response line exceeds %d bytes: %v", maxLine, err)
		}
		return Response{}, c.poison(req.Op, err)
	}
	var resp Response
	if err := decodeResponse(c.sc.Bytes(), &resp); err != nil {
		return Response{}, fmt.Errorf("ctl: decode %s: %w", req.Op, err)
	}
	return resp, nil
}

// poison records a transport failure and wraps it as ErrUnavailable.
// Called with c.mu held.
func (c *Client) poison(op string, err error) error {
	c.broken = fmt.Errorf("%w: %v", ErrUnavailable, err)
	return fmt.Errorf("ctl: %s: %w", op, c.broken)
}

// do performs an exchange and folds Response.Err into the error,
// rehydrating typed routing errors from Response.Code.
func (c *Client) do(req Request) (Response, error) {
	resp, err := c.Do(req)
	if err != nil {
		return resp, err
	}
	if resp.Err != "" {
		if terr := codeError(resp); terr != nil {
			return resp, terr
		}
		return resp, errors.New(resp.Err)
	}
	return resp, nil
}

// Ping checks liveness and returns the node's site id.
func (c *Client) Ping() (camelot.SiteID, error) {
	resp, err := c.do(Request{Op: OpPing})
	return camelot.SiteID(resp.Site), err
}

// SetPeers installs the deployment's site-id -> UDP-address map.
func (c *Client) SetPeers(peers map[camelot.SiteID]string) error {
	m := make(map[string]string, len(peers))
	//lint:ordered map construction; insertion order is unobservable
	for id, addr := range peers {
		m[strconv.FormatUint(uint64(id), 10)] = addr
	}
	_, err := c.do(Request{Op: OpPeers, Peers: m})
	return err
}

// Begin starts a transaction coordinated by the node.
func (c *Client) Begin() (camelot.TID, error) {
	resp, err := c.do(Request{Op: OpBegin})
	return tid.TID{Family: tid.FamilyID(resp.Family), Seq: tid.Seq(resp.Seq)}, err
}

// AddSites declares remote participant sites at the coordinator.
func (c *Client) AddSites(t camelot.TID, sites []camelot.SiteID) error {
	ids := make([]uint32, 0, len(sites))
	for _, s := range sites {
		ids = append(ids, uint32(s))
	}
	_, err := c.do(Request{Op: OpAddSites,
		Family: uint64(t.Family), Seq: uint64(t.Seq), Sites: ids})
	return err
}

// CommitWith runs the named commitment protocol ("2pc", "nb", "paxos";
// empty means "2pc") for t at the coordinator. A clean abort returns
// ErrAborted (wrapped); an unknown protocol name is refused before the
// commit starts; other errors mean the outcome is unknown to the
// client.
func (c *Client) CommitWith(t camelot.TID, protocol string) (wire.Outcome, error) {
	resp, err := c.Do(Request{Op: OpCommit,
		Family: uint64(t.Family), Seq: uint64(t.Seq), Protocol: protocol})
	if err != nil {
		return wire.OutcomeUnknown, err
	}
	if resp.Err != "" {
		if resp.Aborted {
			return OutcomeFromString(resp.Outcome), fmt.Errorf("%w: %s", ErrAborted, resp.Err)
		}
		return OutcomeFromString(resp.Outcome), errors.New(resp.Err)
	}
	return OutcomeFromString(resp.Outcome), nil
}

// Abort aborts t.
func (c *Client) Abort(t camelot.TID) error {
	_, err := c.do(Request{Op: OpAbort, Family: uint64(t.Family), Seq: uint64(t.Seq)})
	return err
}

// WriteKey writes key=val under t, routed by the node's shard map. A
// key the node cannot serve fails with ErrNoShard or ErrWrongSite.
func (c *Client) WriteKey(t camelot.TID, key string, val []byte) error {
	_, err := c.do(Request{Op: OpWriteKey,
		Family: uint64(t.Family), Seq: uint64(t.Seq), Key: key, Val: val})
	return err
}

// ReadKey reads key under t, routed by the node's shard map. A key
// with no value fails with ErrNoSuchKey — t holds its shared lock all
// the same.
func (c *Client) ReadKey(t camelot.TID, key string) ([]byte, error) {
	resp, err := c.do(Request{Op: OpReadKey,
		Family: uint64(t.Family), Seq: uint64(t.Seq), Key: key})
	return resp.Val, err
}

// PeekKey returns the committed value of key, routed by the node's
// shard map, without a transaction.
func (c *Client) PeekKey(key string) ([]byte, bool, error) {
	resp, err := c.do(Request{Op: OpPeekKey, Key: key})
	return resp.Val, resp.Present, err
}

// ShardMap fetches the node's canonical serialized shard map; drivers
// check deployment agreement with bytes.Equal across nodes.
func (c *Client) ShardMap() ([]byte, error) {
	resp, err := c.do(Request{Op: OpShardMap})
	return resp.ShardMap, err
}

// Outcome returns the node's resolved outcome for a family.
func (c *Client) Outcome(f tid.FamilyID) (wire.Outcome, error) {
	resp, err := c.do(Request{Op: OpOutcome, Family: uint64(f)})
	return OutcomeFromString(resp.Outcome), err
}

// Probe runs the oracle's liveness probe at the node.
func (c *Client) Probe() error {
	_, err := c.do(Request{Op: OpProbe})
	return err
}

// TransportStats returns the node's transport counters.
func (c *Client) TransportStats() (Stats, error) {
	resp, err := c.do(Request{Op: OpStats})
	if err != nil {
		return Stats{}, err
	}
	if resp.Stats == nil {
		return Stats{}, errors.New("ctl: stats missing in response")
	}
	return *resp.Stats, nil
}
