// Package wal implements Camelot's common stable-storage log: the
// single per-site write-ahead log through which servers record
// old/new object values and the transaction manager records protocol
// state.
//
// The log is the performance fulcrum of the paper. A log force costs
// a full device write (15 ms in the paper's Table 2; ~30 writes/s on
// their disk), so the number of forces per transaction dominates
// commit latency, and log batching ("group commit") is what lets a
// multithreaded transaction manager raise throughput past the
// one-force-at-a-time ceiling (paper §3.5, Figures 4 and 5).
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"strings"

	"camelot/internal/tid"
	"camelot/internal/wire"
)

// RecType discriminates log record types.
type RecType uint8

// Log record types. RecUpdate carries a server's old and new object
// values ("it reports both the old and new value of the object to the
// disk manager", Figure 1 step 5). The protocol records mirror the
// states of §3.2 and §3.3.
const (
	RecInvalid       RecType = iota
	RecUpdate                // old/new value pair for one object
	RecPrepare               // subordinate is prepared; lists coordinator
	RecCommit                // transaction committed (the commit point at the coordinator)
	RecAbort                 // transaction aborted
	RecNBReplicate           // non-blocking replication-phase commit intent
	RecNBAbortIntent         // non-blocking abort-quorum record
	RecEnd                   // coordinator may forget: all acks received
	_                        // retired (CHECKPOINT); the slot stays so later types keep their numbers on disk

	// Paxos Commit records. RecPaxosPrepare is an RM's prepared record
	// (its Yes vote, durable before the vote leaves the site);
	// RecPaxosAccept is an acceptor's accepted record, batching every
	// instance of the transaction into one force; RecPaxosPromise is an
	// acceptor's ballot promise, forced before answering a takeover
	// leader's phase 1a.
	RecPaxosPrepare
	RecPaxosAccept
	RecPaxosPromise
)

var recNames = map[RecType]string{
	RecUpdate: "UPDATE", RecPrepare: "PREPARE", RecCommit: "COMMIT",
	RecAbort: "ABORT", RecNBReplicate: "NB-REPLICATE",
	RecNBAbortIntent: "NB-ABORT-INTENT", RecEnd: "END",
	RecPaxosPrepare: "PAXOS-PREPARE", RecPaxosAccept: "PAXOS-ACCEPT",
	RecPaxosPromise: "PAXOS-PROMISE",
}

// String returns the record type's name.
func (t RecType) String() string {
	if s, ok := recNames[t]; ok {
		return s
	}
	return "INVALID"
}

// Registered reports whether t has a row in the record registry
// (recNames). Like wire's kind registry, membership is the codec's
// single source of truth: unmarshal rejects an unregistered type as
// corrupt, so a record-type constant without a registry row can never
// flow into recovery.
func (t RecType) Registered() bool {
	_, ok := recNames[t]
	return ok
}

// Record is one log entry. LSN is assigned by Log.Append.
type Record struct {
	LSN  uint64
	Type RecType
	TID  tid.TID
	// Parent is a nested writer's parent. It is written but not
	// read: an aborted child's updates are followed in the log by
	// their compensation records, so recovery needs no ancestry.
	Parent tid.TID

	// Update fields. A nil Old means the key did not exist before the
	// update, a nil New that the update deleted it; an empty non-nil
	// value is a present empty one, and the codec keeps the difference.
	Server string
	Key    string
	Old    []byte
	New    []byte

	// Prepare fields: who coordinates, and (non-blocking) the full
	// participant list and quorum sizes so a promoted coordinator can
	// reconstruct the protocol after a crash.
	Coordinator  tid.SiteID
	Sites        []tid.SiteID
	CommitQuorum uint16
	AbortQuorum  uint16

	// NB replication fields: the collected votes being replicated.
	Votes []wire.SiteVote

	// Paxos fields: the ballot an acceptor promised or accepted at, and
	// the transaction's acceptor set. Encoded only for the RecPaxos*
	// types (a type-gated tail), so every pre-Paxos record's encoding —
	// and therefore its traced marshal size — is unchanged.
	Ballot    uint64
	Acceptors []tid.SiteID
}

// isPaxos reports whether t carries the Paxos tail fields.
func (t RecType) isPaxos() bool {
	return t == RecPaxosPrepare || t == RecPaxosAccept || t == RecPaxosPromise
}

// Codec errors.
var (
	ErrCorrupt = errors.New("wal: corrupt record")
)

// frameHeader is the length prefix in front of every record inside a
// block.
const frameHeader = 4

// encodedSize is the exact number of bytes appendRecord emits for r:
// body plus the trailing CRC32, without the frame's length prefix. It is
// the size the tracer reports, so it must not depend on how records are
// grouped into blocks.
func encodedSize(r *Record) int {
	n := 8 + 1 + 4*8 + // LSN, type, TID, parent
		4 + len(r.Server) + 4 + len(r.Key) + 4 + len(r.Old) + 4 + len(r.New) +
		4 + 2 + 4*len(r.Sites) + // coordinator, sites
		2 + 2 + // quorums
		2 + 5*len(r.Votes) +
		4 // CRC32
	if r.Type.isPaxos() {
		n += 8 + 2 + 4*len(r.Acceptors)
	}
	return n
}

// appendRecord appends r's encoding (LSN included) to dst: the body
// followed by its CRC32, so a torn or corrupted record is detected at
// recovery.
func appendRecord(dst []byte, r *Record) []byte {
	start := len(dst)
	b := binary.BigEndian.AppendUint64(dst, r.LSN)
	b = append(b, byte(r.Type))
	b = binary.BigEndian.AppendUint64(b, uint64(r.TID.Family))
	b = binary.BigEndian.AppendUint64(b, uint64(r.TID.Seq))
	b = binary.BigEndian.AppendUint64(b, uint64(r.Parent.Family))
	b = binary.BigEndian.AppendUint64(b, uint64(r.Parent.Seq))
	b = appendString(b, r.Server)
	b = appendString(b, r.Key)
	b = appendValue(b, r.Old)
	b = appendValue(b, r.New)
	b = binary.BigEndian.AppendUint32(b, uint32(r.Coordinator))
	b = binary.BigEndian.AppendUint16(b, uint16(len(r.Sites)))
	for _, s := range r.Sites {
		b = binary.BigEndian.AppendUint32(b, uint32(s))
	}
	b = binary.BigEndian.AppendUint16(b, r.CommitQuorum)
	b = binary.BigEndian.AppendUint16(b, r.AbortQuorum)
	b = binary.BigEndian.AppendUint16(b, uint16(len(r.Votes)))
	for _, v := range r.Votes {
		b = binary.BigEndian.AppendUint32(b, uint32(v.Site))
		b = append(b, byte(v.Vote))
	}
	if r.Type.isPaxos() {
		b = binary.BigEndian.AppendUint64(b, r.Ballot)
		b = binary.BigEndian.AppendUint16(b, uint16(len(r.Acceptors)))
		for _, s := range r.Acceptors {
			b = binary.BigEndian.AppendUint32(b, uint32(s))
		}
	}
	return binary.BigEndian.AppendUint32(b, crc32.ChecksumIEEE(b[start:]))
}

// A block is what one device write carries: one or more frames, each
// [u32 length][record ‖ CRC32], back to back. Stores treat a block as
// opaque bytes; the framing lives here and nowhere else, so that a
// write cut short anywhere still yields a whole-frame prefix that
// recovery can keep.

// appendFrame appends r as one frame; size is encodedSize(r).
func appendFrame(dst []byte, r *Record, size int) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(size))
	return appendRecord(dst, r)
}

// nextFrame splits the first frame off b, returning its record bytes
// and what follows. ok is false when b does not hold a whole frame.
func nextFrame(b []byte) (rec, rest []byte, ok bool) {
	if len(b) < frameHeader {
		return nil, b, false
	}
	n := int(binary.BigEndian.Uint32(b))
	if n > len(b)-frameHeader {
		return nil, b, false
	}
	return b[frameHeader : frameHeader+n], b[frameHeader+n:], true
}

// decodeBlock walks the frames of one block. It returns the records of
// every frame before the first that fails its length or CRC check,
// the byte length of that good prefix, and the error that stopped the
// walk — nil when the whole block decoded. A block with no frame at
// all is damaged: the log never writes an empty batch.
func decodeBlock(b []byte) (recs []*Record, good int, _ error) {
	rest := b
	for len(rest) > 0 {
		frame, after, ok := nextFrame(rest)
		if !ok {
			return recs, good, fmt.Errorf("%w: truncated frame at byte %d of %d", ErrCorrupt, good, len(b))
		}
		r, err := unmarshal(frame)
		if err != nil {
			return recs, good, err
		}
		recs = append(recs, r)
		good = len(b) - len(after)
		rest = after
	}
	if len(recs) == 0 {
		return nil, 0, fmt.Errorf("%w: empty block", ErrCorrupt)
	}
	return recs, good, nil
}

// unmarshal decodes one record (a frame's payload), verifying its CRC.
func unmarshal(b []byte) (*Record, error) {
	if len(b) < 4 {
		return nil, fmt.Errorf("%w: %d bytes", ErrCorrupt, len(b))
	}
	body, sum := b[:len(b)-4], binary.BigEndian.Uint32(b[len(b)-4:])
	if crc32.ChecksumIEEE(body) != sum {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	d := recDecoder{buf: body}
	r := &Record{}
	r.LSN = d.u64()
	r.Type = RecType(d.u8())
	// Registry membership, not a range check: a range would admit any
	// byte below the newest constant whether or not the registry knows
	// it. Zero, gaps, and everything above the last type all fail the
	// same way.
	if !r.Type.Registered() {
		return nil, fmt.Errorf("%w: type %d", ErrCorrupt, r.Type)
	}
	r.TID.Family = tid.FamilyID(d.u64())
	r.TID.Seq = tid.Seq(d.u64())
	r.Parent.Family = tid.FamilyID(d.u64())
	r.Parent.Seq = tid.Seq(d.u64())
	r.Server = string(d.bytes())
	r.Key = string(d.bytes())
	r.Old = d.value()
	r.New = d.value()
	r.Coordinator = tid.SiteID(d.u32())
	for i, n := 0, int(d.u16()); i < n; i++ {
		r.Sites = append(r.Sites, tid.SiteID(d.u32()))
	}
	r.CommitQuorum = d.u16()
	r.AbortQuorum = d.u16()
	for i, n := 0, int(d.u16()); i < n; i++ {
		r.Votes = append(r.Votes, wire.SiteVote{
			Site: tid.SiteID(d.u32()), Vote: wire.Vote(d.u8()),
		})
	}
	if r.Type.isPaxos() {
		r.Ballot = d.u64()
		for i, n := 0, int(d.u16()); i < n; i++ {
			r.Acceptors = append(r.Acceptors, tid.SiteID(d.u32()))
		}
	}
	if d.err != nil {
		return nil, d.err
	}
	if len(d.buf) != 0 {
		return nil, fmt.Errorf("%w: trailing bytes", ErrCorrupt)
	}
	return r, nil
}

// BlockType labels an encoded block with the type of every record it
// carries, in order ("COMMIT", "UPDATE+UPDATE+PREPARE", ...), or "?"
// when the block does not decode. Fault-injection tooling uses it to
// name log-write injection points without re-implementing the codec.
func BlockType(b []byte) string {
	recs, _, err := decodeBlock(b)
	if err != nil {
		return "?"
	}
	names := make([]string, len(recs))
	for i, r := range recs {
		names[i] = r.Type.String()
	}
	return strings.Join(names, "+")
}

// FrameEnds returns the byte offset just past each whole frame of an
// encoded block, stopping at the first frame whose length runs past
// the block. Fault-injection tooling uses it to aim a torn write or a
// bit flip at a chosen record of a multi-record block.
func FrameEnds(b []byte) []int {
	var ends []int
	for rest := b; ; {
		_, after, ok := nextFrame(rest)
		if !ok {
			return ends
		}
		ends = append(ends, len(b)-len(after))
		rest = after
	}
}

func appendString(b []byte, s string) []byte {
	b = binary.BigEndian.AppendUint32(b, uint32(len(s)))
	return append(b, s...)
}

// emptyValue is the length an UPDATE record writes for an Old or New
// value that is present but empty. Length 0 stays the absent value
// (nil), so every record without an empty value encodes as it always
// has, and recovery can tell a committed empty write from a delete.
const emptyValue = 0xFFFFFFFF

// appendValue appends an Old or New value: nil as length 0, a present
// empty value as emptyValue, anything else as its length and bytes.
func appendValue(b, p []byte) []byte {
	if p != nil && len(p) == 0 {
		return binary.BigEndian.AppendUint32(b, emptyValue)
	}
	b = binary.BigEndian.AppendUint32(b, uint32(len(p)))
	return append(b, p...)
}

type recDecoder struct {
	buf []byte
	err error
}

func (d *recDecoder) take(n int) []byte {
	if d.err != nil || len(d.buf) < n {
		d.err = ErrCorrupt
		return nil
	}
	out := d.buf[:n]
	d.buf = d.buf[n:]
	return out
}

func (d *recDecoder) u8() uint8 {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (d *recDecoder) u16() uint16 {
	b := d.take(2)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint16(b)
}

func (d *recDecoder) u32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

func (d *recDecoder) u64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

func (d *recDecoder) bytes() []byte {
	n := int(d.u32())
	if d.err != nil || n > len(d.buf) {
		d.err = ErrCorrupt
		return nil
	}
	if n == 0 {
		return nil
	}
	out := make([]byte, n)
	copy(out, d.take(n))
	return out
}

// value decodes what appendValue wrote: nil for length 0, a non-nil
// empty slice for emptyValue.
func (d *recDecoder) value() []byte {
	if len(d.buf) >= 4 && binary.BigEndian.Uint32(d.buf) == emptyValue {
		d.take(4)
		return []byte{}
	}
	return d.bytes()
}
