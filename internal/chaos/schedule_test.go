package chaos

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"camelot/internal/wire"
)

func TestScheduleRoundTrip(t *testing.T) {
	s := Schedule{
		Version:  Version,
		Seed:     42,
		Sites:    3,
		Protocol: wire.NonBlocking,
		Txns:     12,
		Faults: []Fault{
			{Class: ClassForce, Site: 2, Index: 7, Mode: ModeTorn},
			{Class: ClassMsg, Index: 133, Mode: ModePartition, WindowMs: 250},
		},
		Note: "round trip",
	}
	b, err := s.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeSchedule(b)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := got.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b, b2) {
		t.Errorf("re-encode differs:\n%s\nvs\n%s", b, b2)
	}
	if got.Protocol != wire.NonBlocking || !bytes.Contains(b, []byte(`"protocol": "nb"`)) {
		t.Errorf("protocol did not round-trip by name: %v in\n%s", got.Protocol, b)
	}
}

// A schedule that names no protocol is two-phase commit, and says so
// when written back: the field is always encoded.
func TestScheduleWithoutProtocolIsTwoPhase(t *testing.T) {
	s, err := DecodeSchedule([]byte(`{"version":"chaos/v1","seed":1,"sites":3,"txns":4,"faults":[]}`))
	if err != nil {
		t.Fatal(err)
	}
	if s.Protocol != wire.TwoPhase {
		t.Errorf("protocol = %v, want two-phase", s.Protocol)
	}
	if b, _ := s.Encode(); !bytes.Contains(b, []byte(`"protocol": "2pc"`)) {
		t.Errorf("encoding omits the protocol:\n%s", b)
	}
}

func TestDecodeScheduleRejectsBadInput(t *testing.T) {
	cases := []struct{ name, in string }{
		{"wrong version", `{"version":"chaos/v2","seed":1,"sites":3,"txns":4,"faults":[]}`},
		{"unknown field", `{"version":"chaos/v1","seed":1,"sites":3,"txns":4,"faults":[],"extra":1}`},
		// The field older chaos/v1 files carried: refused, never replayed
		// under whatever protocol the zero value happens to mean.
		{"stale nonblocking field", `{"version":"chaos/v1","seed":1,"sites":3,"nonblocking":true,"txns":4,"faults":[]}`},
		{"unknown protocol", `{"version":"chaos/v1","seed":1,"sites":3,"protocol":"paxso","txns":4,"faults":[]}`},
		{"no sites", `{"version":"chaos/v1","seed":1,"sites":0,"txns":4,"faults":[]}`},
		{"bad class", `{"version":"chaos/v1","seed":1,"sites":3,"txns":4,
			"faults":[{"class":"disk","index":0,"mode":"crash"}]}`},
		{"bad mode", `{"version":"chaos/v1","seed":1,"sites":3,"txns":4,
			"faults":[{"class":"force","site":1,"index":0,"mode":"drop"}]}`},
		{"negative index", `{"version":"chaos/v1","seed":1,"sites":3,"txns":4,
			"faults":[{"class":"msg","index":-1,"mode":"drop"}]}`},
	}
	for _, c := range cases {
		if _, err := DecodeSchedule([]byte(c.in)); err == nil {
			t.Errorf("%s: decoded without error", c.name)
		}
	}
}

// A site's store holds one armed fault per operation, so a second
// force (or ckpt) fault for one site — which the store would silently
// drop — is refused. One of each per site, and msg faults, stay fine.
func TestDecodeScheduleRejectsSecondStoreFault(t *testing.T) {
	const head = `{"version":"chaos/v1","seed":1,"sites":3,"txns":4,"faults":[`
	ok := head + `{"class":"force","site":1,"index":0,"mode":"crash"},
		{"class":"ckpt","site":1,"index":0,"mode":"crash"},
		{"class":"force","site":2,"index":3,"mode":"torn"},
		{"class":"msg","index":0,"mode":"drop"},{"class":"msg","index":1,"mode":"dup"}]}`
	if _, err := DecodeSchedule([]byte(ok)); err != nil {
		t.Fatalf("one store fault per site and op refused: %v", err)
	}
	for _, class := range []string{ClassForce, ClassCkpt} {
		in := head + `{"class":"` + class + `","site":2,"index":0,"mode":"crash"},
			{"class":"` + class + `","site":2,"index":5,"mode":"crash"}]}`
		if _, err := DecodeSchedule([]byte(in)); err == nil {
			t.Errorf("two %s faults at site 2 decoded without error", class)
		}
	}
}

func TestFaultStrings(t *testing.T) {
	got := Fault{Class: ClassForce, Site: 2, Index: 7, Mode: ModeTorn}.String()
	if !strings.Contains(got, "site2") || !strings.Contains(got, "torn") {
		t.Errorf("Fault.String() = %q", got)
	}
	got = Fault{Class: ClassMsg, Index: 5, Mode: ModePartition, WindowMs: 100}.String()
	if !strings.Contains(got, "partition") || !strings.Contains(got, "100ms") {
		t.Errorf("Fault.String() = %q", got)
	}
}

func TestTornLastEnumeratedOnlyForMultiRecordBlocks(t *testing.T) {
	has := func(p Point) bool {
		for _, m := range p.Modes() {
			if m == ModeTornLast {
				return true
			}
		}
		return false
	}
	if has(Point{Class: ClassForce, Label: "COMMIT"}) {
		t.Error("torn-last enumerated for a single-record block, where it repeats torn")
	}
	if !has(Point{Class: ClassForce, Label: "UPDATE+COMMIT"}) {
		t.Error("torn-last not enumerated for a multi-record block")
	}
	if err := validFault(Fault{Class: ClassMsg, Index: 0, Mode: ModeTornLast}); err == nil {
		t.Error("torn-last accepted for a datagram fault")
	}
}

// FuzzDecodeSchedule feeds arbitrary bytes to the chaos/v1 parser,
// seeded from the regression corpus (every file of which must decode).
// It must never panic, and a schedule it accepts must re-encode and
// decode to an equal schedule.
func FuzzDecodeSchedule(f *testing.F) {
	files, _ := filepath.Glob("testdata/*.json")
	for _, name := range files {
		b, err := os.ReadFile(name)
		if err != nil {
			f.Fatal(err)
		}
		if _, err := DecodeSchedule(b); err != nil {
			f.Fatalf("%s: %v", name, err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		s, err := DecodeSchedule(in)
		if err != nil {
			return
		}
		b, err := s.Encode()
		if err != nil {
			t.Fatalf("accepted schedule does not encode: %v", err)
		}
		again, err := DecodeSchedule(b)
		if err != nil {
			t.Fatalf("re-encoded schedule refused: %v\n%s", err, b)
		}
		if !reflect.DeepEqual(s, again) {
			t.Fatalf("round trip changed the schedule: %+v vs %+v", s, again)
		}
	})
}
