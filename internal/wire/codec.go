package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"camelot/internal/tid"
)

// Codec errors.
var (
	ErrShort   = errors.New("wire: truncated message")
	ErrBadKind = errors.New("wire: invalid message kind")
	// ErrOversize reports a message whose encoding exceeds MaxDatagram
	// and therefore cannot be carried in one UDP datagram. The sender
	// must surface it loudly: an oversize message silently truncated in
	// flight arrives as a corrupt datagram and "vanishes" as ordinary
	// loss, which retry can never mask.
	ErrOversize = errors.New("wire: message exceeds MaxDatagram")
)

// MaxDatagram is the largest legal encoded message: the UDP payload of
// one 1500-byte Ethernet frame (1500 - 20 IP - 8 UDP), so no datagram
// is IP-fragmented on a real LAN, and a receiver holds any legal one
// whole in a buffer of MaxDatagram+1 bytes (the extra byte shows
// truncation). Every message a transaction of up to 32 participants
// produces fits with room for piggybacked acks to spare (AckRoom);
// the ack batches split to fit. Anything larger is refused at
// marshal/send time, where the error can still name the message,
// rather than discovered as silent truncation at the receiver.
const MaxDatagram = 1472

// ackSize is the encoded size of one piggybacked ack TID.
const ackSize = 16

// headerSize is the encoded size of every fixed field laid down by
// AppendMarshal: Kind (1) + TID (16) + Parent (16) + From/To (8) +
// Seq (8) + Flags (1) + four slice-length prefixes (8) + quorums (4)
// + Vote/Outcome/State (3) + Ballot (8) + Accepted length prefix (2).
const headerSize = 1 + 16 + 16 + 8 + 8 + 1 + 2 + 4 + 3 + 2 + 2 + 8 + 2 + 2

// EncodedSize returns the exact number of bytes Marshal will produce
// for m. Marshal sizes its buffer with it — one allocation, no
// regrowth, even for the large AckTIDs/Votes/Acceptors messages the
// ack-flush path batches — and callers that reuse buffers can
// pre-grow with it.
func EncodedSize(m *Msg) int {
	return headerSize +
		4*len(m.Sites) +
		5*len(m.Votes) +
		ackSize*len(m.AckTIDs) +
		4*len(m.Acceptors) +
		13*len(m.Accepted)
}

// AckRoom is how many more ack TIDs m can carry and still encode
// within MaxDatagram; zero or less when there is no room. A sender
// attaches at most this many of the acks it owes (§3.2's
// piggybacking) and leaves the rest for the next datagram.
func AckRoom(m *Msg) int {
	return (MaxDatagram - EncodedSize(m)) / ackSize
}

// Marshal encodes m into a self-describing byte string. The buffer is
// sized exactly (EncodedSize), so the encoding costs one allocation.
func Marshal(m *Msg) []byte {
	return AppendMarshal(make([]byte, 0, EncodedSize(m)), m)
}

// AppendMarshal appends m's encoding to dst and returns the extended
// slice, exactly as append does. This is the zero-allocation form of
// Marshal: a sender that reuses its buffer across sends (the
// transport's pooled datagram buffers, a benchmark's scratch) pays no
// allocation at all once the buffer has grown to its working size.
// The bytes produced are identical to Marshal's.
func AppendMarshal(dst []byte, m *Msg) []byte {
	b := dst
	b = append(b, byte(m.Kind))
	b = be64(b, uint64(m.TID.Family))
	b = be64(b, uint64(m.TID.Seq))
	b = be64(b, uint64(m.Parent.Family))
	b = be64(b, uint64(m.Parent.Seq))
	b = be32(b, uint32(m.From))
	b = be32(b, uint32(m.To))
	b = be64(b, m.Seq)
	b = append(b, m.Flags)
	b = be16(b, uint16(len(m.Sites)))
	for _, s := range m.Sites {
		b = be32(b, uint32(s))
	}
	b = be16(b, m.CommitQuorum)
	b = be16(b, m.AbortQuorum)
	b = append(b, byte(m.Vote), byte(m.Outcome), byte(m.State))
	b = be16(b, uint16(len(m.Votes)))
	for _, v := range m.Votes {
		b = be32(b, uint32(v.Site))
		b = append(b, byte(v.Vote))
	}
	b = be16(b, uint16(len(m.AckTIDs)))
	for _, t := range m.AckTIDs {
		b = be64(b, uint64(t.Family))
		b = be64(b, uint64(t.Seq))
	}
	b = be64(b, m.Ballot)
	b = be16(b, uint16(len(m.Acceptors)))
	for _, s := range m.Acceptors {
		b = be32(b, uint32(s))
	}
	b = be16(b, uint16(len(m.Accepted)))
	for _, a := range m.Accepted {
		b = be32(b, uint32(a.Site))
		b = be64(b, a.Ballot)
		b = append(b, byte(a.Vote))
	}
	return b
}

// AppendDatagram appends m's encoding to dst and enforces the
// send-side invariants: the kind must be registered (an unregistered
// kind would be bounced as ErrBadKind by every receiver, i.e.
// manufactured silent loss) and the encoding must fit one UDP
// datagram, otherwise ErrOversize with the offending size. Real-network
// senders use this, never AppendMarshal or Marshal. On error dst is
// returned unextended, so a pooled buffer stays clean for its next use.
func AppendDatagram(dst []byte, m *Msg) ([]byte, error) {
	if !m.Kind.Registered() {
		return dst, fmt.Errorf("%w: %d", ErrBadKind, m.Kind)
	}
	b := AppendMarshal(dst, m)
	if len(b)-len(dst) > MaxDatagram {
		return dst, fmt.Errorf("%w: %s is %d bytes (limit %d)", ErrOversize, m.Kind, len(b)-len(dst), MaxDatagram)
	}
	return b, nil
}

// toOffset is the byte offset of the To field in the fixed header laid
// down by Marshal: Kind (1) + TID (16) + Parent (16) + From (4).
const toOffset = 1 + 16 + 16 + 4

// PatchTo rewrites the To field of an already marshaled message in
// place. A fan-out sender marshals once and re-addresses the buffer
// per destination instead of re-encoding the identical payload — the
// coordinator's prepare/replicate/outcome sends are its hottest path
// (§4.2).
func PatchTo(buf []byte, to tid.SiteID) {
	binary.BigEndian.PutUint32(buf[toOffset:], uint32(to))
}

// Unmarshal decodes a message produced by Marshal.
func Unmarshal(data []byte) (*Msg, error) {
	m := &Msg{}
	if err := UnmarshalInto(m, data); err != nil {
		return nil, err
	}
	return m, nil
}

// UnmarshalInto decodes data into m, reusing m's slice capacity
// instead of allocating fresh backing arrays. It is the
// zero-allocation form of Unmarshal for callers that own the message
// lifecycle and reuse one Msg as scratch (benchmarks, probes): once
// the slices have grown to the traffic's working size, decoding
// allocates nothing. m is fully overwritten; on error its contents
// are unspecified. Note the lifecycle caveat: a Msg handed to an
// asynchronous consumer (core.Manager.Deliver parks it on the thread
// pool's queue) must NOT be recycled by the receiver loop.
func UnmarshalInto(m *Msg, data []byte) error {
	d := decoder{buf: data}
	m.Reset()
	m.Kind = Kind(d.u8())
	// Membership in the kind registry, not a range check: a range
	// admits any byte below the newest constant whether or not the
	// registry knows it, and the old `> KPaxos1b` guard meant a kind
	// constant added without a registry row decoded fine and then
	// stringified as INVALID. Every unregistered byte — zero, gaps,
	// and everything above the last kind — must fail the same way.
	if !m.Kind.Registered() {
		return fmt.Errorf("%w: %d", ErrBadKind, m.Kind)
	}
	m.TID.Family = tid.FamilyID(d.u64())
	m.TID.Seq = tid.Seq(d.u64())
	m.Parent.Family = tid.FamilyID(d.u64())
	m.Parent.Seq = tid.Seq(d.u64())
	m.From = tid.SiteID(d.u32())
	m.To = tid.SiteID(d.u32())
	m.Seq = d.u64()
	m.Flags = d.u8()
	nSites := d.count(4)
	m.Sites = slices.Grow(m.Sites, nSites)
	for i := 0; i < nSites; i++ {
		m.Sites = append(m.Sites, tid.SiteID(d.u32()))
	}
	m.CommitQuorum = d.u16()
	m.AbortQuorum = d.u16()
	m.Vote = Vote(d.u8())
	m.Outcome = Outcome(d.u8())
	m.State = NBState(d.u8())
	nVotes := d.count(5)
	m.Votes = slices.Grow(m.Votes, nVotes)
	for i := 0; i < nVotes; i++ {
		sv := SiteVote{Site: tid.SiteID(d.u32()), Vote: Vote(d.u8())}
		m.Votes = append(m.Votes, sv)
	}
	nAcks := d.count(ackSize)
	m.AckTIDs = slices.Grow(m.AckTIDs, nAcks)
	for i := 0; i < nAcks; i++ {
		t := tid.TID{Family: tid.FamilyID(d.u64()), Seq: tid.Seq(d.u64())}
		m.AckTIDs = append(m.AckTIDs, t)
	}
	m.Ballot = d.u64()
	nAcceptors := d.count(4)
	m.Acceptors = slices.Grow(m.Acceptors, nAcceptors)
	for i := 0; i < nAcceptors; i++ {
		m.Acceptors = append(m.Acceptors, tid.SiteID(d.u32()))
	}
	nAccepted := d.count(13)
	m.Accepted = slices.Grow(m.Accepted, nAccepted)
	for i := 0; i < nAccepted; i++ {
		a := PaxosAccepted{Site: tid.SiteID(d.u32()), Ballot: d.u64(), Vote: Vote(d.u8())}
		m.Accepted = append(m.Accepted, a)
	}
	if d.err != nil {
		return d.err
	}
	if len(d.buf) != 0 {
		return fmt.Errorf("wire: %d trailing bytes", len(d.buf))
	}
	return nil
}

func be16(b []byte, v uint16) []byte { return binary.BigEndian.AppendUint16(b, v) }
func be32(b []byte, v uint32) []byte { return binary.BigEndian.AppendUint32(b, v) }
func be64(b []byte, v uint64) []byte { return binary.BigEndian.AppendUint64(b, v) }

type decoder struct {
	buf []byte
	err error
}

func (d *decoder) take(n int) []byte {
	if d.err != nil || len(d.buf) < n {
		d.err = ErrShort
		return nil
	}
	out := d.buf[:n]
	d.buf = d.buf[n:]
	return out
}

// count reads a list's u16 length prefix and checks that the bytes
// left can hold that many elements of size bytes each, so a hostile
// prefix cannot make the decoder allocate for elements that are not
// there. A list that cannot fit reads as zero long and fails the
// decode with ErrShort.
func (d *decoder) count(size int) int {
	n := int(d.u16())
	if n*size > len(d.buf) {
		d.err = ErrShort
		return 0
	}
	return n
}

func (d *decoder) u8() uint8 {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (d *decoder) u16() uint16 {
	b := d.take(2)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint16(b)
}

func (d *decoder) u32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

func (d *decoder) u64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}
