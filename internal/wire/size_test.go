package wire

import (
	"errors"
	"reflect"
	"testing"

	"camelot/internal/tid"
)

// maxLegalMsg builds a message whose encoding is exactly MaxDatagram
// bytes: the fixed header padded out with piggybacked acks (16 bytes
// each) and participant sites (4 bytes each).
func maxLegalMsg(t *testing.T) *Msg {
	t.Helper()
	m := &Msg{Kind: KCommitAck, TID: tid.Top(tid.MakeFamily(1, 1)), From: 1, To: 2}
	base := len(Marshal(m))
	pad := MaxDatagram - base
	for i := 0; i < pad/16; i++ {
		m.AckTIDs = append(m.AckTIDs, tid.Top(tid.MakeFamily(2, uint32(i+1))))
	}
	for i := 0; i < (pad%16)/4; i++ {
		m.Sites = append(m.Sites, tid.SiteID(i+1))
	}
	if got := len(Marshal(m)); got != MaxDatagram {
		t.Fatalf("constructed message is %d bytes, want exactly %d", got, MaxDatagram)
	}
	return m
}

// TestMarshalDatagramPinsLargestLegalMessage pins the size limit: a
// message encoding to exactly MaxDatagram marshals and round-trips,
// and one slice element more is refused with ErrOversize rather than
// sent to be truncated in flight.
func TestMarshalDatagramPinsLargestLegalMessage(t *testing.T) {
	m := maxLegalMsg(t)
	buf, err := AppendDatagram(nil, m)
	if err != nil {
		t.Fatalf("AppendDatagram at limit: %v", err)
	}
	got, err := Unmarshal(buf)
	if err != nil {
		t.Fatalf("Unmarshal at limit: %v", err)
	}
	if !reflect.DeepEqual(m, got) {
		t.Fatal("largest legal message did not round-trip")
	}

	m.Sites = append(m.Sites, 99) // 4 bytes over
	if _, err := AppendDatagram(nil, m); !errors.Is(err, ErrOversize) {
		t.Fatalf("AppendDatagram over limit = %v, want ErrOversize", err)
	}
}

// TestPatchToMatchesMarshal proves the fan-out path's re-addressing
// shortcut: patching To in a marshaled buffer yields byte-identical
// output to marshaling with that To in the first place.
func TestPatchToMatchesMarshal(t *testing.T) {
	m := sampleMsg()
	for _, to := range []tid.SiteID{0, 1, 7, 1 << 20} {
		patched := Marshal(m)
		PatchTo(patched, to)

		direct := *m
		direct.To = to
		if want := Marshal(&direct); !reflect.DeepEqual(patched, want) {
			t.Fatalf("PatchTo(%v) diverges from direct marshal", to)
		}
		got, err := Unmarshal(patched)
		if err != nil {
			t.Fatalf("Unmarshal patched: %v", err)
		}
		if got.To != to {
			t.Fatalf("patched To = %v, want %v", got.To, to)
		}
	}
}
