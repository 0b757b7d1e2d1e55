package wire

import (
	"reflect"
	"testing"

	"camelot/internal/tid"
)

// FuzzUnmarshal checks the decoder never panics and that anything it
// accepts re-encodes to an equivalent message (decode∘encode∘decode
// is the identity on the decoded value).
func FuzzUnmarshal(f *testing.F) {
	f.Add([]byte{})
	f.Add(Marshal(&Msg{Kind: KPrepare, TID: tid.Top(tid.MakeFamily(1, 1)), From: 1, To: 2}))
	f.Add(Marshal(&Msg{
		Kind: KNBReplicate, TID: tid.Top(tid.MakeFamily(3, 9)),
		Sites: []tid.SiteID{1, 2, 3}, CommitQuorum: 2, AbortQuorum: 2,
		Votes: []SiteVote{{Site: 1, Vote: VoteYes}},
	}))
	f.Add(Marshal(maxLegalMsg())) // exactly MaxDatagram bytes
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Unmarshal(data)
		if err != nil {
			return
		}
		again, err := Unmarshal(Marshal(m))
		if err != nil {
			t.Fatalf("re-decode of accepted message failed: %v", err)
		}
		if !reflect.DeepEqual(m, again) {
			t.Fatalf("round trip changed the message:\n in: %+v\nout: %+v", m, again)
		}
	})
}
