// Package netem is the real runtime's network-fault emulator: the
// chaos explorer's missing half. Where internal/chaos enumerates
// faults inside the deterministic simulation, netem applies them to
// the actual UDP cluster — a loopback proxy interposed on every
// ordered site pair applies per-link schedules of drop, duplication,
// reordering, delay jitter, and one-way/two-way partition windows,
// while the cluster driver adds process-level faults (SIGKILL,
// SIGSTOP/SIGCONT, restarts) and WAL write failures on the same
// clock.
//
// Schedules are canonical netem/v1 JSON, replayable the way chaos/v1
// schedules replay: every randomized decision draws from a per-link
// PRNG seeded from (schedule seed, from, to), never from global
// process randomness, so a schedule names a reproducible experiment.
// Under the simulation (chaos.RunNetem) the replay is byte-identical;
// on the real network the draw sequence is identical per link and
// only wall-clock interleaving varies.
package netem

import (
	"bytes"
	"encoding/json"
	"fmt"
)

// Version is the schedule format identifier.
const Version = "netem/v1"

// Rule shapes traffic on matching ordered site pairs for a window of
// the run. Zero From/To are wildcards; zero EndMs means "until the
// run ends". Probabilities are in [0, 1).
type Rule struct {
	// From and To select the ordered pair (sender → receiver); 0
	// matches any site.
	From uint32 `json:"from,omitempty"`
	To   uint32 `json:"to,omitempty"`
	// StartMs and EndMs bound the active window, in run-relative
	// milliseconds. EndMs 0 keeps the rule active forever.
	StartMs int `json:"start_ms,omitempty"`
	EndMs   int `json:"end_ms,omitempty"`
	// Drop destroys datagrams with this probability.
	Drop float64 `json:"drop,omitempty"`
	// Dup delivers an extra copy with this probability.
	Dup float64 `json:"dup,omitempty"`
	// DelayMs adds a fixed one-way delay; JitterMs adds a further
	// uniform draw from [0, JitterMs).
	DelayMs  int `json:"delay_ms,omitempty"`
	JitterMs int `json:"jitter_ms,omitempty"`
	// Reorder holds this fraction of datagrams back an extra
	// ReorderMs, so they arrive behind traffic sent after them.
	Reorder   float64 `json:"reorder,omitempty"`
	ReorderMs int     `json:"reorder_ms,omitempty"`
}

// Partition cuts links for a window. B 0 isolates A from every other
// site. OneWay cuts only the A→B direction — the asymmetric failure
// (A's datagrams vanish, B's arrive) that fixed-interval retry loops
// handle worst.
type Partition struct {
	A       uint32 `json:"a"`
	B       uint32 `json:"b,omitempty"`
	StartMs int    `json:"start_ms,omitempty"`
	EndMs   int    `json:"end_ms,omitempty"`
	OneWay  bool   `json:"one_way,omitempty"`
}

// Proc fault operations.
const (
	// OpKill SIGKILLs the site's process (no cleanup, like a crash).
	OpKill = "kill"
	// OpStop SIGSTOPs the process: alive but frozen — the gray
	// failure a deadline, not a connection error, must detect.
	OpStop = "stop"
	// OpCont SIGCONTs a stopped process.
	OpCont = "cont"
	// OpRestart starts a previously killed site again (recovery).
	OpRestart = "restart"
)

// ProcFault is one timed process-level fault.
type ProcFault struct {
	Site uint32 `json:"site"`
	AtMs int    `json:"at_ms"`
	Op   string `json:"op"`
}

// WALFault makes one site's stable log fail-stop: its FailAppend-th
// device write (counted from process start, from zero) is lost and
// returns an error, and the log writes nothing after — the disk died
// mid-run. A disk dies once: a site takes at most one WALFault. A
// device write is one block — every record one log force or flush
// covered — not one record, so a transaction costs a site one to three
// of them, whatever its write set. A fault the run never reaches is
// reported as a violation by both drivers.
type WALFault struct {
	Site       uint32 `json:"site"`
	FailAppend int    `json:"fail_append"`
}

// Schedule is one replayable real-network fault experiment: link
// shaping rules, partition windows, process faults, and WAL faults,
// all on a run-relative millisecond clock.
type Schedule struct {
	// Version must be "netem/v1".
	Version string `json:"version"`
	// Seed seeds every per-link decision PRNG.
	Seed int64 `json:"seed"`
	// DurationMs is how long the driver keeps the workload running
	// (the fault phase); healing and verification happen after.
	DurationMs int         `json:"duration_ms,omitempty"`
	Links      []Rule      `json:"links,omitempty"`
	Partitions []Partition `json:"partitions,omitempty"`
	Procs      []ProcFault `json:"procs,omitempty"`
	WAL        []WALFault  `json:"wal,omitempty"`
	// Note is free-form provenance.
	Note string `json:"note,omitempty"`
}

// Encode serializes the schedule as indented netem/v1 JSON with a
// trailing newline. Field order is fixed by the struct, so equal
// schedules encode byte-identically.
func (s Schedule) Encode() ([]byte, error) {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("netem: encode schedule: %w", err)
	}
	return append(b, '\n'), nil
}

// DecodeSchedule parses a netem/v1 schedule strictly: unknown fields
// and version mismatches are errors.
func DecodeSchedule(b []byte) (Schedule, error) {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	var s Schedule
	if err := dec.Decode(&s); err != nil {
		return Schedule{}, fmt.Errorf("netem: decode schedule: %w", err)
	}
	if err := s.Validate(); err != nil {
		return Schedule{}, err
	}
	return s, nil
}

// Validate checks the schedule's internal consistency.
func (s Schedule) Validate() error {
	if s.Version != Version {
		return fmt.Errorf("netem: version %q, want %q", s.Version, Version)
	}
	if s.DurationMs < 0 {
		return fmt.Errorf("netem: negative duration")
	}
	for _, r := range s.Links {
		if !prob(r.Drop) || !prob(r.Dup) || !prob(r.Reorder) {
			return fmt.Errorf("netem: rule %+v: probabilities must be in [0, 1)", r)
		}
		if r.DelayMs < 0 || r.JitterMs < 0 || r.ReorderMs < 0 ||
			r.StartMs < 0 || r.EndMs < 0 {
			return fmt.Errorf("netem: rule %+v: negative duration", r)
		}
		if r.EndMs != 0 && r.EndMs <= r.StartMs {
			return fmt.Errorf("netem: rule %+v: empty window", r)
		}
		if r.Reorder > 0 && r.ReorderMs == 0 {
			return fmt.Errorf("netem: rule %+v: reorder needs reorder_ms", r)
		}
	}
	for _, p := range s.Partitions {
		if p.A == 0 {
			return fmt.Errorf("netem: partition %+v: A is required", p)
		}
		if p.A == p.B {
			return fmt.Errorf("netem: partition %+v: A and B must differ", p)
		}
		if p.StartMs < 0 || p.EndMs < 0 || (p.EndMs != 0 && p.EndMs <= p.StartMs) {
			return fmt.Errorf("netem: partition %+v: bad window", p)
		}
		if p.OneWay && p.B == 0 {
			return fmt.Errorf("netem: partition %+v: one-way needs a B site", p)
		}
	}
	for _, f := range s.Procs {
		switch f.Op {
		case OpKill, OpStop, OpCont, OpRestart:
		default:
			return fmt.Errorf("netem: proc fault %+v: unknown op %q", f, f.Op)
		}
		if f.Site == 0 || f.AtMs < 0 {
			return fmt.Errorf("netem: proc fault %+v: bad site or time", f)
		}
	}
	dies := make(map[uint32]bool)
	for _, f := range s.WAL {
		if f.Site == 0 || f.FailAppend < 0 {
			return fmt.Errorf("netem: wal fault %+v: bad site or index", f)
		}
		if dies[f.Site] {
			return fmt.Errorf("netem: wal fault %+v: a second disk death for site %d (a disk dies once)", f, f.Site)
		}
		dies[f.Site] = true
	}
	return nil
}

func prob(p float64) bool { return p >= 0 && p < 1 }
