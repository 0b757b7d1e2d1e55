package wire

import (
	"encoding/json"
	"strconv"
	"strings"
	"testing"
)

// The names are an external format: flags, the ctl JSON line, chaos
// schedules and loadgen reports all spell protocols this way.
func TestProtocolNamesAndOrder(t *testing.T) {
	want := []string{"2pc", "nb", "paxos"}
	got := Protocols()
	if len(got) != len(want) {
		t.Fatalf("Protocols() = %v, want %v", got, want)
	}
	for i, p := range got {
		if p.String() != want[i] {
			t.Errorf("Protocols()[%d] = %v, want %s", i, p, want[i])
		}
	}
	if got[0] != TwoPhase || Protocol(0) != TwoPhase {
		t.Error("two-phase commit must be the zero value: Options{} means 2PC")
	}
}

func TestProtocolRoundTrip(t *testing.T) {
	for _, p := range Protocols() {
		if err := p.Check(); err != nil {
			t.Errorf("%v: listed by Protocols() but Check() = %v", p, err)
		}
		back, err := ParseProtocol(p.String())
		if err != nil || back != p {
			t.Errorf("ParseProtocol(%q) = %v, %v; want %v", p.String(), back, err, p)
		}
		// Through JSON, as a schedule or report field carries it.
		b, err := json.Marshal(struct{ P Protocol }{p})
		if err != nil {
			t.Fatalf("%v: marshal: %v", p, err)
		}
		if want := `{"P":"` + p.String() + `"}`; string(b) != want {
			t.Errorf("%v encodes as %s, want %s", p, b, want)
		}
		var out struct{ P Protocol }
		if err := json.Unmarshal(b, &out); err != nil || out.P != p {
			t.Errorf("%s decodes as %v, %v; want %v", b, out.P, err, p)
		}
	}
}

func TestParseProtocolEmptyIsTwoPhase(t *testing.T) {
	if p, err := ParseProtocol(""); err != nil || p != TwoPhase {
		t.Errorf(`ParseProtocol("") = %v, %v; want two-phase`, p, err)
	}
}

func TestParseProtocolRefusesUnknownNames(t *testing.T) {
	for _, name := range []string{"paxso", "3pc", "2PC", "NB", "Paxos", " nb", "two-phase"} {
		p, err := ParseProtocol(name)
		if err == nil {
			t.Errorf("ParseProtocol(%q) = %v, want an error", name, p)
			continue
		}
		// One sentence, naming what was typed and everything accepted.
		if !strings.Contains(err.Error(), `"`+name+`"`) {
			t.Errorf("ParseProtocol(%q): %q does not quote the name", name, err)
		}
		for _, ok := range Protocols() {
			if !strings.Contains(err.Error(), ok.String()) {
				t.Errorf("ParseProtocol(%q): %q does not name %v", name, err, ok)
			}
		}
	}
}

func TestProtocolOutOfRange(t *testing.T) {
	p := Protocol(len(Protocols()))
	if p.Check() == nil {
		t.Fatalf("%d is past the last protocol but passes Check", p)
	}
	s := p.String()
	if !strings.Contains(s, strconv.Itoa(int(p))) {
		t.Errorf("out-of-range String() = %q, want the number in it", s)
	}
	if back, err := ParseProtocol(s); err == nil {
		t.Errorf("ParseProtocol(%q) = %v; an out-of-range value must not parse back", s, back)
	}
}
