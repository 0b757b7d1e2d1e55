package ctl

import (
	"errors"
	"sync"
	"time"
)

// ErrPoolClosed reports Get on a closed Pool.
var ErrPoolClosed = errors.New("ctl: pool closed")

// DefaultMaxIdle bounds a Pool's idle list when NewPool is given 0:
// enough to keep a bursty driver off the dialer without hoarding file
// descriptors across thousands of pools.
const DefaultMaxIdle = 64

// Pool recycles control connections to one node. An open-loop load
// generator runs thousands of concurrent sessions against a handful
// of sites; dialing per session would serialize on TCP handshakes and
// exhaust ephemeral ports, and one shared Client would serialize every
// session on its request/response lock. Get returns an idle healthy
// client or dials a fresh one; Put recycles it. Clients that come
// back broken (poisoned by a timeout, a desynchronized stream, or
// Close) are discarded, never recycled — a poisoned connection stays
// poisoned.
type Pool struct {
	addr    string
	timeout time.Duration
	maxIdle int

	mu     sync.Mutex
	idle   []*Client
	dials  int
	closed bool
}

// NewPool returns a pool dialing addr with the given per-call default
// deadline (0 = unbounded calls). maxIdle bounds how many idle
// clients are retained; 0 means DefaultMaxIdle.
func NewPool(addr string, timeout time.Duration, maxIdle int) *Pool {
	if maxIdle <= 0 {
		maxIdle = DefaultMaxIdle
	}
	return &Pool{addr: addr, timeout: timeout, maxIdle: maxIdle}
}

// Get returns a healthy client, reusing an idle one when available
// and dialing otherwise.
func (p *Pool) Get() (*Client, error) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, ErrPoolClosed
	}
	if n := len(p.idle); n > 0 {
		c := p.idle[n-1]
		p.idle[n-1] = nil
		p.idle = p.idle[:n-1]
		p.mu.Unlock()
		return c, nil
	}
	p.dials++
	p.mu.Unlock()
	return DialTimeout(p.addr, p.timeout)
}

// Put returns a client to the pool. Broken clients and overflow
// beyond the idle bound are closed and dropped.
func (p *Pool) Put(c *Client) {
	if c == nil {
		return
	}
	if c.Broken() {
		c.Close() //nolint:errcheck // already poisoned
		return
	}
	p.mu.Lock()
	if p.closed || len(p.idle) >= p.maxIdle {
		p.mu.Unlock()
		c.Close() //nolint:errcheck // surplus connection
		return
	}
	p.idle = append(p.idle, c)
	p.mu.Unlock()
}

// Dials reports how many fresh connections the pool has dialed — the
// generator's measure of how well recycling is working (a healthy run
// dials about its peak concurrency, not once per operation).
func (p *Pool) Dials() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.dials
}

// Idle reports the current idle-list size.
func (p *Pool) Idle() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.idle)
}

// Close closes every idle client and fails all future Gets. Clients
// checked out at the time of Close are unaffected; Put closes them
// when they come back.
func (p *Pool) Close() error {
	p.mu.Lock()
	idle := p.idle
	p.idle = nil
	p.closed = true
	p.mu.Unlock()
	var first error
	for _, c := range idle {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
