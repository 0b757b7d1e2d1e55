// Package chaos is the systematic fault-schedule explorer. Where the
// randomized torture test (camelot/torture_test.go) throws dice at
// the cluster, chaos enumerates: a fault-free pilot run of a seeded
// workload records every injection point — each stable-log write,
// each datagram send, each checkpoint truncation — and the explorer
// then replays the identical workload once per point, injecting
// exactly one fault there (a crash, a torn or bit-flipped log block,
// a dropped datagram, a partition window), and asks the recovery
// oracle (internal/oracle) whether transactional semantics survived.
//
// Determinism is the whole trick: the simulation kernel replays the
// same seed into the same event sequence, so "the k-th log write at
// site 2" names the same moment in every run, a failing schedule is
// replayable from a few integers, and a sweep report is byte-for-byte
// reproducible. Failing schedules are shrunk to minimal fault sets
// and serialized as chaos/v1 JSON repro files (see testdata/ for the
// regression corpus pinning the bugs of DESIGN.md §7).
package chaos

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"

	"camelot/internal/wire"
)

// Version is the repro-file format identifier.
const Version = "chaos/v1"

// Fault classes.
const (
	// ClassForce targets the Index-th stable-log block write at Site.
	ClassForce = "force"
	// ClassMsg targets the Index-th datagram send in the run (counted
	// globally across sites, unreliable and reliable alike).
	ClassMsg = "msg"
	// ClassCkpt targets the Index-th checkpoint log-truncation at Site.
	ClassCkpt = "ckpt"
)

// Fault modes.
const (
	// ModeCrash crashes the site at the point: for force, the block is
	// durable but the force never acknowledges; for msg, the sender
	// dies with the datagram; for ckpt, the truncation is refused and
	// the site dies (the checkpoint image is already durable —
	// recovery must tolerate the un-truncated log).
	ModeCrash = "crash"
	// ModeTorn cuts the log block inside its first record before the
	// site dies — the classic torn write: nothing of the batch
	// survives, and recovery must truncate it cleanly.
	ModeTorn = "torn"
	// ModeTornLast cuts the log block inside its last record: every
	// record of the batch but the last survives, unacknowledged. It is
	// enumerated only where it differs from ModeTorn — at blocks
	// carrying more than one record.
	ModeTornLast = "torn-last"
	// ModeBitflip writes the full log block with one bit flipped
	// inside its middle record (so that record's CRC fails and the
	// records before it survive) before the site dies.
	ModeBitflip = "bitflip"
	// ModeDrop silently drops the datagram.
	ModeDrop = "drop"
	// ModePartition cuts the datagram's link for WindowMs
	// milliseconds, then heals it.
	ModePartition = "partition"
	// ModeDup delivers the datagram twice — the at-least-once hazard
	// every UDP protocol step must be idempotent against.
	ModeDup = "dup"
	// ModeReorder delays the datagram past the sender's subsequent
	// sends, so it arrives out of order (a stale prepare after its
	// retransmit, an outcome before the vote that caused it, ...).
	ModeReorder = "reorder"
)

// Fault is one injected fault, addressed by class-specific counters
// that the deterministic replay makes meaningful.
type Fault struct {
	// Class is ClassForce, ClassMsg, or ClassCkpt.
	Class string `json:"class"`
	// Site addresses force/ckpt faults (whose stable store); msg
	// faults derive their victim from the targeted datagram's sender.
	Site uint32 `json:"site,omitempty"`
	// Index counts from zero: per-site for force/ckpt, global for msg.
	Index int `json:"index"`
	// Mode is one of the Mode constants valid for the class.
	Mode string `json:"mode"`
	// WindowMs is the partition-heal delay for ModePartition.
	WindowMs int `json:"window_ms,omitempty"`
}

// String renders the fault compactly for reports.
func (f Fault) String() string {
	switch f.Class {
	case ClassMsg:
		if f.Mode == ModePartition {
			return fmt.Sprintf("msg[%d]:partition(%dms)", f.Index, f.WindowMs)
		}
		return fmt.Sprintf("msg[%d]:%s", f.Index, f.Mode)
	default:
		return fmt.Sprintf("%s[site%d,%d]:%s", f.Class, f.Site, f.Index, f.Mode)
	}
}

// Schedule is one replayable run: the seeded workload plus the faults
// to inject into it. It is the chaos/v1 repro-file payload.
type Schedule struct {
	// Version must be "chaos/v1".
	Version string `json:"version"`
	// Seed seeds the simulation kernel (and thereby everything).
	Seed int64 `json:"seed"`
	// Sites is the cluster size; the workload's coordinator is site 1.
	Sites int `json:"sites"`
	// Protocol is the commit protocol the workload runs, encoded by
	// name ("2pc", "nb", "paxos") and always present; a file without
	// it decodes as two-phase commit, and one with an unknown name —
	// or the `nonblocking` field older chaos/v1 files carried — is
	// refused.
	Protocol wire.Protocol `json:"protocol"`
	// Txns is the number of workload transactions.
	Txns int `json:"txns"`
	// Shards, when positive, shards the keyspace into that many shards
	// round-robin over the sites and runs the keyspace-aware cross-shard
	// workload instead of the replicated-key one. Zero (the default,
	// omitted from the encoding so the existing corpus is untouched)
	// keeps the legacy single-server-per-site layout.
	Shards int `json:"shards,omitempty"`
	// Faults is the set to inject; empty means a fault-free pilot.
	Faults []Fault `json:"faults"`
	// Note is free-form provenance ("pins DESIGN §7 bug 1", ...).
	Note string `json:"note,omitempty"`
}

// Encode serializes the schedule as indented chaos/v1 JSON with a
// trailing newline. Field order is fixed by the struct, so equal
// schedules encode byte-identically.
func (s Schedule) Encode() ([]byte, error) {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("chaos: encode schedule: %w", err)
	}
	return append(b, '\n'), nil
}

// DecodeSchedule parses a chaos/v1 repro file strictly: unknown
// fields and version mismatches are errors, so a stale corpus fails
// loudly instead of silently replaying the wrong thing.
func DecodeSchedule(b []byte) (Schedule, error) {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	var s Schedule
	if err := dec.Decode(&s); err != nil {
		return Schedule{}, fmt.Errorf("chaos: decode schedule: %w", err)
	}
	if err := s.validate(); err != nil {
		return Schedule{}, err
	}
	return s, nil
}

// validate checks what decoding and both runners require of a
// schedule.
func (s Schedule) validate() error {
	if s.Version != Version {
		return fmt.Errorf("chaos: version %q, want %q", s.Version, Version)
	}
	if err := s.Protocol.Check(); err != nil {
		return fmt.Errorf("chaos: %w", err)
	}
	if s.Sites < 1 || s.Txns < 1 {
		return fmt.Errorf("chaos: schedule needs sites and txns")
	}
	if s.Shards < 0 {
		return fmt.Errorf("chaos: negative shard count %d", s.Shards)
	}
	// A site's store holds one armed fault per operation: a second force
	// (or ckpt) fault for one site would silently replace the first.
	slots := make(map[Fault]bool)
	for _, f := range s.Faults {
		if err := validFault(f); err != nil {
			return err
		}
		if f.Class == ClassMsg {
			continue
		}
		slot := Fault{Class: f.Class, Site: f.Site}
		if slots[slot] {
			return fmt.Errorf("chaos: second %s fault at site %d: a site's store holds one", f.Class, f.Site)
		}
		slots[slot] = true
	}
	return nil
}

func validFault(f Fault) error {
	ok := false
	switch f.Class {
	case ClassForce:
		ok = f.Mode == ModeCrash || f.Mode == ModeTorn || f.Mode == ModeTornLast || f.Mode == ModeBitflip
	case ClassMsg:
		ok = f.Mode == ModeDrop || f.Mode == ModeCrash || f.Mode == ModePartition ||
			f.Mode == ModeDup || f.Mode == ModeReorder
	case ClassCkpt:
		ok = f.Mode == ModeCrash
	}
	if !ok || f.Index < 0 {
		return fmt.Errorf("chaos: invalid fault %+v", f)
	}
	return nil
}

// Point is one enumerated injection point from a pilot run.
type Point struct {
	// Class and Site/Index address the point exactly as a Fault does.
	Class string `json:"class"`
	Site  uint32 `json:"site,omitempty"`
	Index int    `json:"index"`
	// Label says what happens there ("UPDATE+COMMIT" for a log write
	// carrying an update and a commit record, "*wire.Msg 1→2" for a
	// datagram, ...).
	Label string `json:"label"`
}

// Modes returns the fault modes the sweep tries at this point.
func (p Point) Modes() []string {
	switch p.Class {
	case ClassForce:
		if strings.Contains(p.Label, "+") { // a multi-record block
			return []string{ModeCrash, ModeTorn, ModeTornLast, ModeBitflip}
		}
		return []string{ModeCrash, ModeTorn, ModeBitflip}
	case ClassMsg:
		return []string{ModeDrop, ModeCrash, ModePartition, ModeDup, ModeReorder}
	default:
		return []string{ModeCrash}
	}
}
