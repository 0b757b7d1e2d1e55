package chaos

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"camelot/camelot"
	"camelot/internal/oracle"
	"camelot/internal/params"
	"camelot/internal/shardmap"
	"camelot/internal/sim"
	"camelot/internal/tid"
	"camelot/internal/transport"
	"camelot/internal/wal"
	"camelot/internal/wire"
	"camelot/internal/workload"
)

// recoverDelay is how long a crashed site stays down before the
// engine restarts it — long enough for peers to notice (timeouts are
// 50–200 ms in the workload config), short enough that the workload
// keeps making progress.
const recoverDelay = 250 * time.Millisecond

// defaultPartitionWindow heals a ModePartition cut that did not
// specify WindowMs.
const defaultPartitionWindow = 300 * time.Millisecond

// reorderDelay is how far a ModeReorder fault pushes its datagram
// behind the sender's subsequent traffic — comfortably past several
// send cycles, well short of the retry timers, so the late copy races
// real protocol progress rather than just looking like a drop.
const reorderDelay = 30 * time.Millisecond

// Result is one run's verdict.
type Result struct {
	// Schedule echoes what was run.
	Schedule Schedule `json:"schedule"`
	// Outcomes is the client's view of each workload transaction.
	Outcomes []string `json:"outcomes"`
	// Violations lists every broken invariant; empty means the
	// cluster survived the schedule.
	Violations []string `json:"violations,omitempty"`
	// Deadlock is the kernel's deadlock report, if the run wedged.
	Deadlock string `json:"deadlock,omitempty"`
	// Points is the enumerated injection-point list; present only for
	// a fault-free pilot run.
	Points []Point `json:"points,omitempty"`
}

// Failed reports whether the run broke any invariant.
func (r *Result) Failed() bool {
	return len(r.Violations) > 0 || r.Deadlock != ""
}

// Run replays the schedule's seeded workload with its faults injected
// and checks the recovery oracle. The same schedule always produces
// the same Result.
func Run(s Schedule) (*Result, error) { return run(s, false) }

// run is Run, with Paxos Commit at F=0 in place of F=1 if paxosF0 is
// set: the protocol two-phase commit degenerates from, against which
// the tests replay the two-phase sweep.
func run(s Schedule, paxosF0 bool) (*Result, error) {
	if s.Version == "" {
		s.Version = Version
	}
	if err := s.validate(); err != nil {
		return nil, err
	}
	e := &engine{sched: s, msgFaults: make(map[int]Fault), paxosF0: paxosF0}
	return e.run()
}

// engine is the per-run state: the cluster under test, the armed
// fault hooks, and the injection-point counters.
type engine struct {
	sched   Schedule
	paxosF0 bool // Paxos runs at F=0, not F=1 (run)

	k      *sim.Kernel
	c      *camelot.Cluster
	sites  []camelot.SiteID
	smap   *shardmap.Map     // nil unless the schedule shards the keyspace
	stores []*wal.FaultStore // parallel to sites

	mu        sync.Mutex
	msgCount  int
	msgLabels []string // pilot labels, one per counted datagram
	msgFaults map[int]Fault
	recovery  []string // recovery failures, reported as violations
}

func srvName(id camelot.SiteID) string { return fmt.Sprintf("srv%d", id) }

// workloadConfig mirrors the functional-test configuration: the fast
// cost model with short timeouts, so a sweep of hundreds of runs
// stays cheap while still exercising every timer path.
func workloadConfig() camelot.Config {
	cfg := camelot.DefaultConfig()
	cfg.Params = params.Fast()
	cfg.Threads = 5
	cfg.GroupCommit = true
	cfg.LogFlushInterval = 20 * time.Millisecond
	cfg.LockTimeout = 500 * time.Millisecond
	cfg.RetryInterval = 50 * time.Millisecond
	cfg.InquireInterval = 50 * time.Millisecond
	cfg.PromotionTimeout = 100 * time.Millisecond
	cfg.AckFlushInterval = 20 * time.Millisecond
	cfg.RPCTimeout = 200 * time.Millisecond
	cfg.Trace = true
	return cfg
}

// build boots the kernel and the cluster under test from the
// schedule's workload parameters — shared between the chaos fault
// runner and the netem schedule replay.
func (e *engine) build() error {
	s := e.sched
	e.k = sim.New(s.Seed)
	cfg := workloadConfig()
	cfg.WrapStore = func(site camelot.SiteID, inner wal.Store) wal.Store {
		fs := wal.NewFaultStore(inner, func() { e.crashAndRecover(site) })
		e.stores = append(e.stores, fs)
		return fs
	}
	for i := 1; i <= s.Sites; i++ {
		e.sites = append(e.sites, camelot.SiteID(i))
	}
	if s.Shards > 0 {
		m, err := shardmap.New(1, s.Shards, e.sites)
		if err != nil {
			return fmt.Errorf("chaos: shard map: %w", err)
		}
		e.smap = m
		cfg.ShardMap = m
	}
	e.c = camelot.NewCluster(e.k, cfg)
	for _, id := range e.sites {
		n := e.c.AddNode(id)
		if e.smap == nil {
			n.AddServer(srvName(id))
		}
	}
	return nil
}

func (e *engine) run() (*Result, error) {
	s := e.sched
	if err := e.build(); err != nil {
		return nil, err
	}

	// Arm the stable-store faults.
	for _, f := range s.Faults {
		switch f.Class {
		case ClassForce, ClassCkpt:
			idx := int(f.Site) - 1
			if idx < 0 || idx >= len(e.stores) {
				return nil, fmt.Errorf("chaos: fault site %d out of range", f.Site)
			}
			if f.Class == ClassCkpt {
				e.stores[idx].ArmTruncate(f.Index)
			} else {
				e.stores[idx].ArmAppend(f.Index, damages[f.Mode])
			}
		case ClassMsg:
			e.msgFaults[f.Index] = f
		}
	}
	e.c.Network().SetShaper(e.inject)

	res := &Result{Schedule: s}
	res.Outcomes, res.Violations, res.Deadlock = e.drive("chaos-client")
	if len(s.Faults) == 0 {
		res.Points = e.points()
	}
	return res, nil
}

// drive runs the workload and then the oracle on one client thread,
// to completion, and returns the client's view of each transaction
// with the verdict.
func (e *engine) drive(thread string) (outcomes, violations []string, deadlock string) {
	txns := make([]oracle.Txn, e.sched.Txns)
	e.k.Go(thread, func() {
		e.workload(txns)
		violations = e.verify(txns)
		e.k.Stop()
	})
	e.k.RunUntil(10 * time.Minute)
	for _, tx := range txns {
		outcomes = append(outcomes, tx.Outcome.String())
	}
	return outcomes, violations, e.k.Deadlocked()
}

// damages maps the force-fault modes onto the store's damage modes.
var damages = map[string]wal.Damage{
	ModeCrash:    wal.DamageCrash,
	ModeTorn:     wal.DamageTorn,
	ModeTornLast: wal.DamageTornLast,
	ModeBitflip:  wal.DamageBitflip,
}

// inject is the transport hook: it counts every datagram send and
// fires any msg fault addressed to the current count. It runs with
// the network lock held, so side effects are scheduled via After. A
// reliable datagram honours only a drop, so dup and reorder faults
// aimed at one do nothing.
func (e *engine) inject(from, to tid.SiteID, payload any, _ bool) transport.Shape {
	e.mu.Lock()
	k := e.msgCount
	e.msgCount++
	if len(e.sched.Faults) == 0 {
		e.msgLabels = append(e.msgLabels, fmt.Sprintf("%s %d→%d", payloadLabel(payload), from, to))
	}
	f, hit := e.msgFaults[k]
	e.mu.Unlock()
	if !hit {
		return transport.Shape{}
	}
	switch f.Mode {
	case ModeDrop:
		return transport.Shape{Drop: true}
	case ModeCrash:
		e.crashAndRecover(from)
		return transport.Shape{Drop: true} // the datagram dies with its sender
	case ModePartition:
		window := time.Duration(f.WindowMs) * time.Millisecond
		if window <= 0 {
			window = defaultPartitionWindow
		}
		a, b := from, to
		e.k.After(0, func() { e.c.Network().SetPartition(a, b, true) })
		e.k.After(window, func() { e.c.Network().SetPartition(a, b, false) })
		return transport.Shape{} // the cut catches it at delivery time
	case ModeDup:
		return transport.Shape{Dup: 1}
	case ModeReorder:
		return transport.Shape{Delay: reorderDelay}
	}
	return transport.Shape{}
}

func payloadLabel(p any) string {
	if m, ok := p.(*wire.Msg); ok {
		return m.Kind.String()
	}
	return fmt.Sprintf("%T", p)
}

// crashAndRecover schedules an immediate crash of site and its
// restart recoverDelay later. Safe to call from any hook: both the
// crash and the recovery run on their own kernel threads.
func (e *engine) crashAndRecover(site camelot.SiteID) {
	e.k.After(0, func() { e.c.Node(site).Crash() })
	e.k.After(recoverDelay, func() {
		if err := e.c.Node(site).Recover(); err != nil {
			e.mu.Lock()
			e.recovery = append(e.recovery, fmt.Sprintf("recovery: site %d: %v", site, err))
			e.mu.Unlock()
		}
	})
}

// workload pushes s.Txns distributed update transactions through site
// 1, with a checkpoint at a rotating site every fourth transaction.
// What transaction i writes is its plan's business; the plan is a pure
// function of i, so the fault-point enumeration stays deterministic.
// Outcomes land in txns.
func (e *engine) workload(txns []oracle.Txn) {
	plan := e.replicatedPlan
	if e.smap != nil {
		plan = e.shardedPlan
	}
	// Paxos runs at F=1, so the sweep's single-site crashes are exactly
	// the faults it must mask.
	opts := camelot.Options{Protocol: e.sched.Protocol, PaxosF: 1}
	if e.paxosF0 {
		opts.PaxosF = 0
	}
	for i := range txns {
		var write func(*camelot.Tx) error
		txns[i], write = plan(i)
		txns[i].Outcome = oracle.Skipped

		// The coordinator may be mid-restart; retry Begin through it.
		var tx *camelot.Tx
		for attempt := 0; attempt < 40; attempt++ {
			var err error
			if tx, err = e.c.Node(1).Begin(); err == nil {
				break
			}
			tx = nil
			e.k.Sleep(100 * time.Millisecond)
		}
		if tx == nil {
			continue
		}
		txns[i].Family = tx.ID().Family

		if err := write(tx); err != nil {
			tx.Abort() //nolint:errcheck // outcome recorded as aborted either way
			txns[i].Outcome = oracle.Aborted
		} else {
			err := tx.CommitWith(opts)
			switch {
			case err == nil:
				txns[i].Outcome = oracle.Committed
			case errors.Is(err, camelot.ErrAborted):
				txns[i].Outcome = oracle.Aborted
			default:
				txns[i].Outcome = oracle.Unknown
			}
		}

		if (i+1)%4 == 0 {
			ck := e.sites[(i/4)%len(e.sites)]
			if !e.c.Node(ck).Crashed() {
				e.c.Node(ck).Checkpoint() //nolint:errcheck // injected ckpt faults surface here
			}
		}
		e.k.Sleep(20 * time.Millisecond)
	}
}

// replicatedPlan is the named-server workload's transaction i: one key
// written at every site's server.
func (e *engine) replicatedPlan(i int) (oracle.Txn, func(*camelot.Tx) error) {
	key := fmt.Sprintf("k%d", i)
	writes := make([]oracle.Write, len(e.sites))
	for j, id := range e.sites {
		writes[j] = oracle.Write{Key: key, Site: id}
	}
	return oracle.Txn{Writes: writes}, func(tx *camelot.Tx) error {
		for _, id := range e.sites {
			if err := tx.Write(srvName(id), key, []byte("v")); err != nil {
				return err
			}
		}
		return nil
	}
}

// shardedPlan is the keyspace workload's transaction i: workload.Across
// over every placed site — distinct keys on distinct shards, so
// commitment must be atomic across shards rather than replicas — and,
// every third transaction, a rotating shared hot key (the skew).
// Writes route by key through the shard map.
func (e *engine) shardedPlan(i int) (oracle.Txn, func(*camelot.Tx) error) {
	p := workload.Across(fmt.Sprintf("k%d", i), e.smap, e.smap.Sites(), 1, e.sched.Protocol)
	if i%3 == 0 {
		p.AddShared(e.smap, fmt.Sprintf("hot%d", i%5))
	}
	return p.Tx, func(tx *camelot.Tx) error {
		for _, w := range p.Tx.Writes {
			if err := tx.WriteKey(w.Key, []byte("v")); err != nil {
				return err
			}
		}
		return nil
	}
}

// verify heals the world, lets the protocol quiesce, and runs the
// oracle twice: once on the settled cluster, and once more after
// bouncing every site — updates that survive the second pass were
// genuinely durable, not just cached in volatile state.
func (e *engine) verify(txns []oracle.Txn) []string {
	// Heal: no more injections, no loss, no cuts, everyone up.
	e.c.Network().SetShaper(nil)
	for _, fs := range e.stores {
		fs.Disarm()
	}
	e.c.Network().SetLossRate(0)
	for i, a := range e.sites {
		for _, b := range e.sites[i+1:] {
			e.c.Network().SetPartition(a, b, false)
		}
	}
	// Let pending crash/recover timers fire, then pick up stragglers.
	e.k.Sleep(2 * time.Second)
	for _, id := range e.sites {
		if e.c.Node(id).Crashed() {
			if err := e.c.Node(id).Recover(); err != nil {
				e.mu.Lock()
				e.recovery = append(e.recovery, fmt.Sprintf("recovery: site %d: %v", id, err))
				e.mu.Unlock()
			}
		}
	}
	// Quiesce: resolution timers are ≤ 200 ms, so ten seconds is an
	// eternity of retries.
	e.k.Sleep(10 * time.Second)

	ocfg := oracle.Config{Sites: e.sites, ServerOf: srvName, ShardMap: e.smap}
	var out []string
	e.mu.Lock()
	out = append(out, e.recovery...)
	e.mu.Unlock()
	for _, v := range oracle.Check(e.c, ocfg, txns) {
		out = append(out, v.String())
	}

	// Durability pass: bounce everything, then re-check.
	for _, id := range e.sites {
		e.c.Node(id).Crash()
	}
	for _, id := range e.sites {
		if err := e.c.Node(id).Recover(); err != nil {
			out = append(out, fmt.Sprintf("durability: recovery: site %d: %v", id, err))
		}
	}
	e.k.Sleep(5 * time.Second)
	for _, v := range oracle.Check(e.c, ocfg, txns) {
		out = append(out, "durability: "+v.String())
	}
	return out
}

// points assembles the pilot's enumerated injection points: every
// stable-log block write (labeled with its record type), every
// datagram send, every checkpoint truncation.
func (e *engine) points() []Point {
	var out []Point
	for i, fs := range e.stores {
		site := uint32(e.sites[i])
		for k, label := range fs.Labels() {
			out = append(out, Point{Class: ClassForce, Site: site, Index: k, Label: label})
		}
	}
	e.mu.Lock()
	labels := append([]string(nil), e.msgLabels...)
	e.mu.Unlock()
	for k, label := range labels {
		out = append(out, Point{Class: ClassMsg, Index: k, Label: label})
	}
	for i, fs := range e.stores {
		site := uint32(e.sites[i])
		_, truncs := fs.Counts()
		for k := 0; k < truncs; k++ {
			out = append(out, Point{Class: ClassCkpt, Site: site, Index: k, Label: "truncate"})
		}
	}
	return out
}
