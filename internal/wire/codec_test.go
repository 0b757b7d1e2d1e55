package wire

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"camelot/internal/tid"
)

func sampleMsg() *Msg {
	return &Msg{
		Kind:         KNBReplicate,
		TID:          tid.Top(tid.MakeFamily(3, 77)),
		From:         3,
		To:           5,
		Seq:          991,
		Sites:        []tid.SiteID{1, 2, 3},
		CommitQuorum: 2,
		AbortQuorum:  2,
		Vote:         VoteYes,
		Outcome:      OutcomeCommit,
		State:        NBReplicated,
		Votes:        []SiteVote{{Site: 1, Vote: VoteYes}, {Site: 2, Vote: VoteReadOnly}},
		AckTIDs:      []tid.TID{tid.Top(tid.MakeFamily(1, 4))},
	}
}

func TestRoundTripFull(t *testing.T) {
	m := sampleMsg()
	got, err := Unmarshal(Marshal(m))
	if err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if !reflect.DeepEqual(m, got) {
		t.Fatalf("round trip mismatch:\n in: %+v\nout: %+v", m, got)
	}
}

func TestRoundTripMinimal(t *testing.T) {
	m := &Msg{Kind: KCommit, TID: tid.Top(tid.MakeFamily(1, 1)), From: 1, To: 2}
	got, err := Unmarshal(Marshal(m))
	if err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if !reflect.DeepEqual(m, got) {
		t.Fatalf("round trip mismatch: %+v vs %+v", m, got)
	}
}

func TestRoundTripEveryKind(t *testing.T) {
	for _, k := range Kinds() {
		m := &Msg{Kind: k, TID: tid.Top(tid.MakeFamily(1, uint32(k)))}
		got, err := Unmarshal(Marshal(m))
		if err != nil {
			t.Fatalf("kind %v: %v", k, err)
		}
		if got.Kind != k {
			t.Fatalf("kind %v decoded as %v", k, got.Kind)
		}
	}
}

// TestRoundTripProperty drives random well-formed messages through
// the codec with testing/quick.
func TestRoundTripProperty(t *testing.T) {
	kinds := Kinds() // the registry, not a numeric range: the enum has a retired slot
	gen := func(r *rand.Rand) *Msg {
		m := &Msg{
			Kind:         kinds[r.Intn(len(kinds))],
			TID:          tid.TID{Family: tid.FamilyID(r.Uint64()), Seq: tid.Seq(r.Uint64())},
			From:         tid.SiteID(r.Uint32()),
			To:           tid.SiteID(r.Uint32()),
			Seq:          r.Uint64(),
			CommitQuorum: uint16(r.Uint32()),
			AbortQuorum:  uint16(r.Uint32()),
			Vote:         Vote(r.Intn(4)),
			Outcome:      Outcome(r.Intn(3)),
			State:        NBState(r.Intn(6)),
		}
		for i := r.Intn(5); i > 0; i-- {
			m.Sites = append(m.Sites, tid.SiteID(r.Uint32()))
		}
		for i := r.Intn(5); i > 0; i-- {
			m.Votes = append(m.Votes, SiteVote{Site: tid.SiteID(r.Uint32()), Vote: Vote(r.Intn(4))})
		}
		for i := r.Intn(5); i > 0; i-- {
			m.AckTIDs = append(m.AckTIDs, tid.TID{Family: tid.FamilyID(r.Uint64()), Seq: tid.Seq(r.Uint64())})
		}
		return m
	}
	prop := func(seed int64) bool {
		m := gen(rand.New(rand.NewSource(seed)))
		got, err := Unmarshal(Marshal(m))
		return err == nil && reflect.DeepEqual(m, got)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestUnmarshalTruncated(t *testing.T) {
	full := Marshal(sampleMsg())
	for n := 0; n < len(full); n++ {
		if _, err := Unmarshal(full[:n]); err == nil {
			t.Fatalf("Unmarshal accepted %d-byte prefix of %d-byte message", n, len(full))
		}
	}
}

func TestUnmarshalTrailingGarbage(t *testing.T) {
	b := append(Marshal(sampleMsg()), 0xFF)
	if _, err := Unmarshal(b); err == nil {
		t.Fatal("Unmarshal accepted trailing garbage")
	}
}

// TestUnmarshalEveryKindByte drives all 256 possible kind bytes
// through Unmarshal: registered kinds decode, every unregistered byte
// — zero, gaps in the numbering, everything above the last kind —
// fails uniformly with ErrBadKind. This is the table the old range
// check (`> KPaxos1b`) could not honestly pass: a kind constant added
// without a kindNames row would decode fine and stringify as INVALID.
func TestUnmarshalEveryKindByte(t *testing.T) {
	b := Marshal(sampleMsg())
	for v := 0; v <= 255; v++ {
		b[0] = byte(v)
		m, err := Unmarshal(b)
		if Kind(v).Registered() {
			if err != nil {
				t.Errorf("kind byte %d (%s): Unmarshal = %v, want ok", v, Kind(v), err)
			} else if m.Kind != Kind(v) {
				t.Errorf("kind byte %d decoded as %v", v, m.Kind)
			}
			continue
		}
		if !errors.Is(err, ErrBadKind) {
			t.Errorf("kind byte %d: Unmarshal err = %v, want ErrBadKind", v, err)
		}
	}
}

// TestMarshalDatagramRejectsUnregisteredKind pins the send side of
// the same contract: an unregistered kind must be refused at the
// sender, where the error can still name the message, instead of
// being bounced by every receiver as manufactured silent loss.
func TestMarshalDatagramRejectsUnregisteredKind(t *testing.T) {
	for _, k := range []Kind{KInvalid, Kind(200), Kind(255)} {
		m := sampleMsg()
		m.Kind = k
		if _, err := AppendDatagram(nil, m); !errors.Is(err, ErrBadKind) {
			t.Errorf("kind %d: AppendDatagram err = %v, want ErrBadKind", k, err)
		}
	}
}

// TestUnmarshalFuzzDoesNotPanic feeds random bytes to the decoder;
// any outcome except a panic or huge allocation is acceptable.
func TestUnmarshalFuzzDoesNotPanic(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		b := make([]byte, r.Intn(120))
		r.Read(b)
		_, _ = Unmarshal(b)
	}
}

func TestKindStrings(t *testing.T) {
	if KPrepare.String() != "PREPARE" {
		t.Errorf("KPrepare.String() = %q", KPrepare.String())
	}
	if Kind(250).String() != "INVALID" {
		t.Errorf("unknown kind String() = %q", Kind(250).String())
	}
	if VoteReadOnly.String() != "READ-ONLY" {
		t.Errorf("VoteReadOnly.String() = %q", VoteReadOnly.String())
	}
	if OutcomeCommit.String() != "COMMIT" {
		t.Errorf("OutcomeCommit.String() = %q", OutcomeCommit.String())
	}
	if NBReplicated.String() != "REPLICATED" {
		t.Errorf("NBReplicated.String() = %q", NBReplicated.String())
	}
}
