package main

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"time"

	"camelot/camelot"
	"camelot/internal/ctl"
)

// span is one traced interval. Spans of one transaction share Txn and
// hang from that transaction's "txn" span through Parent (0 = none).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Site   int    `json:"site,omitempty"`
	Txn    string `json:"txn,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

type outcome uint8

const (
	committed outcome = iota
	aborted
	failed // error, timeout or a wrong value read: the transaction's fate is unknown to the client
)

// sample is what the client saw of one transaction.
type sample struct {
	lag     time.Duration // begin issued − intended arrival
	txn     time.Duration // begin issued → commit reply
	commit  time.Duration // the commit call alone
	fromDue time.Duration // intended arrival → commit reply
	result  outcome
	traced  bool // spans were recorded for it
}

// session is one client: a connection to every site's ctl server and
// a plan it executes one transaction at a time.
type session struct {
	id    int
	w     workload
	conns []*ctl.Client
	dials int

	// Tracing state. A traced phase records spans for every other
	// transaction, so that the traced and the untraced medians come
	// from the same seconds on the same host and their ratio is the
	// tracing overhead, not the host's drift between two runs.
	tracing bool // the transaction in progress is traced
	epoch   time.Time
	nextID  int64
	spans   []span
}

func dialSession(id int, w workload, c *cluster) (*session, error) {
	s := &session{id: id, w: w, nextID: int64(id+1) << 32}
	for _, srv := range c.ctls {
		cl, err := ctl.DialTimeout(srv.Addr(), callTimeout)
		if err != nil {
			s.close()
			return nil, err
		}
		s.conns = append(s.conns, cl)
		s.dials++
	}
	return s, nil
}

func (s *session) close() {
	for _, cl := range s.conns {
		cl.Close() //nolint:errcheck // teardown
	}
}

// call runs one ctl exchange, as a child span of parent when tracing.
func (s *session) call(name string, site int, parent int64, fn func() error) error {
	if !s.tracing {
		return fn()
	}
	begin := time.Now()
	err := fn()
	s.nextID++
	s.spans = append(s.spans, span{
		ID: s.nextID, Parent: parent, Name: name, Site: site + 1,
		Start: begin.Sub(s.epoch).Nanoseconds(), End: time.Since(s.epoch).Nanoseconds(),
	})
	return err
}

// run executes ops on their schedule, measured from epoch, and
// returns one sample per op. It is an open loop as far as one
// sequential session can be: a transaction that overruns the next
// arrival delays it, and that delay is reported as lag.
func (s *session) run(ops []op, epoch time.Time, traced bool) []sample {
	out := make([]sample, len(ops))
	s.epoch = epoch
	for i, o := range ops {
		if d := time.Until(epoch.Add(o.due)); d > 0 {
			time.Sleep(d)
		}
		s.tracing = traced && i%2 == 0
		out[i] = s.txn(o)
	}
	return out
}

// txn drives one planned transaction through the public ctl surface:
// begin at the coordinator, the operations at each participant,
// addsites when there are remote participants, commit.
func (s *session) txn(o op) sample {
	coordSite := o.parts[0]
	coord := s.conns[coordSite]
	firstSpan := len(s.spans)
	s.nextID++
	txnSpan := s.nextID

	begin := time.Now()
	var t camelot.TID
	err := s.call("ctl.begin", coordSite, txnSpan, func() (err error) {
		t, err = coord.Begin()
		return err
	})
	for p := 0; err == nil && p < len(o.parts); p++ {
		site := o.parts[p]
		cl := s.conns[site]
		for _, key := range o.keys[p] {
			if s.w.read {
				err = s.call("ctl.read", site, txnSpan, func() error {
					v, err := cl.ReadKey(t, key)
					if err == nil && !bytes.Equal(v, valueFor(key, preloadVal)) {
						err = fmt.Errorf("read %q: wrong value", key)
					}
					return err
				})
			} else {
				err = s.call("ctl.write", site, txnSpan, func() error {
					return cl.WriteKey(t, key, valueFor(key, s.w.valSize))
				})
			}
			if err != nil {
				break
			}
		}
	}
	if err == nil && len(o.parts) > 1 {
		remote := make([]camelot.SiteID, 0, len(o.parts)-1)
		for _, site := range o.parts[1:] {
			remote = append(remote, camelot.SiteID(site+1))
		}
		err = s.call("ctl.addsites", coordSite, txnSpan, func() error {
			return coord.AddSites(t, remote)
		})
	}
	commitBegin := time.Now()
	if err == nil {
		err = s.call("ctl.commit", coordSite, txnSpan, func() error {
			_, err := coord.CommitWith(t, s.w.protocol)
			return err
		})
	} else if !t.IsZero() {
		coord.Abort(t) //nolint:errcheck // already failing; the transaction counts as failed either way
	}
	end := time.Now()

	sm := sample{
		lag:     begin.Sub(s.epoch) - o.due,
		txn:     end.Sub(begin),
		commit:  end.Sub(commitBegin),
		fromDue: end.Sub(s.epoch) - o.due,
		traced:  s.tracing,
	}
	switch {
	case err == nil:
		sm.result = committed
	case errors.Is(err, ctl.ErrAborted):
		sm.result = aborted
	default:
		sm.result = failed
		s.repair()
	}
	if s.tracing {
		s.spans = append(s.spans, span{
			ID: txnSpan, Name: "txn", Site: coordSite + 1,
			Start: begin.Sub(s.epoch).Nanoseconds(), End: end.Sub(s.epoch).Nanoseconds(),
		})
		txn := fmt.Sprintf("%d.%d", t.Family, t.Seq)
		for i := firstSpan; i < len(s.spans); i++ {
			s.spans[i].Txn = txn
		}
	}
	return sm
}

// repair redials connections a timeout has poisoned, so one failure
// does not fail the rest of the session.
func (s *session) repair() {
	for _, cl := range s.conns {
		if cl.Broken() {
			s.dials++
			cl.Reconnect() //nolint:errcheck // a dead node fails the following calls, which are counted
		}
	}
}

// runPhase runs every session's plan against the common epoch and
// returns the samples and the time from the epoch to the last reply.
func runPhase(sessions []*session, plans [][]op, traced bool, epoch time.Time) ([][]sample, time.Duration) {
	out := make([][]sample, len(sessions))
	var wg sync.WaitGroup
	for i, s := range sessions {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[i] = s.run(plans[i], epoch, traced)
		}()
	}
	wg.Wait()
	return out, time.Since(epoch)
}
