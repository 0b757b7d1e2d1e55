package chaos

import (
	"bytes"
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
