package ctl

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"unicode/utf8"
)

// codecCases is one request and one response of every op, with the
// strings a hand-written encoder most easily gets wrong: HTML
// characters, control characters, U+2028, invalid UTF-8.
var codecCases = []struct {
	req  Request
	resp Response
}{
	{Request{Op: OpPing}, Response{OK: true, Site: 3}},
	{Request{Op: OpPeers, Peers: map[string]string{"3": "127.0.0.1:9003", "1": "127.0.0.1:9001", "10": "[::1]:9"}},
		Response{OK: true}},
	{Request{Op: OpBegin}, Response{OK: true, Family: 1<<32 | 7, Seq: 1}},
	{Request{Op: OpAddSites, Family: 1<<32 | 7, Seq: 1, Sites: []uint32{2, 3, 4294967295}}, Response{OK: true}},
	{Request{Op: OpCommit, Family: 18446744073709551615, Seq: 1, Protocol: "paxos"},
		Response{Err: "transaction aborted: <no> & \"yes\"\n", Aborted: true, Outcome: "ABORT"}},
	{Request{Op: OpAbort, Family: 5, Seq: 2}, Response{OK: true}},
	{Request{Op: OpOutcome, Family: 5}, Response{OK: true, Outcome: "COMMIT"}},
	{Request{Op: OpProbe}, Response{Err: "probe: \x00\x1f\x7f \u2028\u2029 \xff\xfe é 😀"}},
	{Request{Op: OpStats}, Response{OK: true, Stats: &Stats{Sent: 10, Recv: 9, Dropped: -1, Oversize: 0,
		Err: "udp: <closed>", Retransmits: 4, Inquiries: 2, WALDeviceWrites: 104, WALErr: "disk\tdead"}}},
	{Request{Op: OpStats}, Response{OK: true, Stats: &Stats{}}},
	{Request{Op: OpWriteKey, Family: 9, Seq: 1, Key: "k<1>&\\", Val: bytes.Repeat([]byte{0, 0xff, 'v'}, 86)},
		Response{Err: "no shard covers \"k\"", Code: CodeNoShard}},
	{Request{Op: OpReadKey, Family: 9, Seq: 1, Key: "k.1"}, Response{OK: true, Val: []byte("v")}},
	{Request{Op: OpPeekKey, Key: "k.1"}, Response{OK: true, Val: []byte{1, 2}, Present: true}},
	{Request{Op: OpShardMap}, Response{OK: true, ShardMap: []byte(`{"v":"shardmap/v1"}`)}},
	{Request{Op: "", Key: "\t", Protocol: "2pc"}, Response{}},
}

// jsonLine is the reference: what encoding/json writes for v, as a line.
func jsonLine(t testing.TB, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return append(b, '\n')
}

// TestCodecMatchesEncodingJSON pins the wire format: for one request
// and one response of every op the encoders write encoding/json's
// bytes, and the decoders read them back to the same value.
func TestCodecMatchesEncodingJSON(t *testing.T) {
	for _, tc := range codecCases {
		if got, want := appendRequest(nil, &tc.req), jsonLine(t, &tc.req); !bytes.Equal(got, want) {
			t.Errorf("request %q:\n got %s\nwant %s", tc.req.Op, got, want)
		}
		if got, want := appendResponse(nil, &tc.resp), jsonLine(t, &tc.resp); !bytes.Equal(got, want) {
			t.Errorf("response to %q:\n got %s\nwant %s", tc.req.Op, got, want)
		}
		var req Request
		if err := decodeRequest(appendRequest(nil, &tc.req), &req); err != nil || !reflect.DeepEqual(req, tc.req) {
			t.Errorf("request %q decodes to %+v, %v", tc.req.Op, req, err)
		}
		var resp, want Response
		if err := decodeResponse(appendResponse(nil, &tc.resp), &resp); err != nil {
			t.Errorf("response to %q: %v", tc.req.Op, err)
		}
		if err := json.Unmarshal(appendResponse(nil, &tc.resp), &want); err != nil || !reflect.DeepEqual(resp, want) {
			t.Errorf("response to %q decodes to %+v, encoding/json to %+v (%v)", tc.req.Op, resp, want, err)
		}
	}
}

// TestCodecDecodes: what the decoder accepts beyond the encoder's own
// output — any key order, whitespace, escapes, null — and what it
// refuses that encoding/json would let through or mangle.
func TestCodecDecodes(t *testing.T) {
	for _, tc := range []struct {
		line string
		want Request
	}{
		{` { "seq" : 2 ,"op":"readkey",	"family":1 } `, Request{Op: OpReadKey, Family: 1, Seq: 2}},
		{`{"op":"w\u0072itekey","key":"\"\\\/\b\f\n\r\t\u00e9\ud83d\ude00\ud800x","val":""}`,
			Request{Op: OpWriteKey, Key: "\"\\/\b\f\n\r\té😀\uFFFDx", Val: []byte{}}},
		{`{"op":"ping","family":null,"val":null,"sites":null,"peers":null}`, Request{Op: OpPing}},
		{`{"op":"addsites","sites":[],"peers":{}}`, Request{Op: OpAddSites, Sites: []uint32{}, Peers: map[string]string{}}},
		{"{\"op\":\"x\xffy\"}", Request{Op: "x\uFFFDy"}},
	} {
		var got, ref Request
		if err := decodeRequest([]byte(tc.line), &got); err != nil || !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: got %+v, %v; want %+v", tc.line, got, err, tc.want)
		}
		if err := json.Unmarshal([]byte(tc.line), &ref); err != nil || !reflect.DeepEqual(ref, tc.want) {
			t.Errorf("%s: encoding/json reads %+v, %v", tc.line, ref, err)
		}
	}
	for _, line := range []string{
		``, `null`, `[]`, `{`, `{"op":"ping"`, `{"op":"ping"} x`, `{"op":"ping",}`, `{,}`,
		`{"OP":"ping"}`, `{"op":"ping","op":"ping"}`, `{"op":"ping","server":"s"}`,
		`{"op":7}`, `{"op":"a\qb"}`, `{"op":"a` + "\n" + `b"}`, `{"op":"\u12"}`,
		`{"family":-1}`, `{"family":1.0}`, `{"family":1e3}`, `{"family":01}`, `{"family":18446744073709551616}`,
		`{"sites":[4294967296]}`, `{"sites":[null]}`, `{"peers":{"1":null}}`, `{"peers":{"1":2}}`,
		`{"val":"not base64"}`, `{"val":[1,2]}`,
	} {
		if err := decodeRequest([]byte(line), new(Request)); err == nil {
			t.Errorf("%s: accepted", line)
		}
	}
	for _, line := range []string{
		`{"ok":1}`, `{"ok":tru}`, `{"site":4294967296}`, `{"stats":{"sent":1,"extra":2}}`,
		`{"stats":{"sent":9223372036854775808}}`, `{"stats":{"sent":-9223372036854775809}}`, `{"stats":[]}`,
	} {
		if err := decodeResponse([]byte(line), new(Response)); err == nil {
			t.Errorf("%s: accepted", line)
		}
	}
	var r Response
	if err := decodeResponse([]byte(`{"stats":{"sent":-9223372036854775808,"recv":-0}}`), &r); err != nil || r.Stats.Sent != -1<<63 {
		t.Errorf("smallest int: %+v, %v", r.Stats, err)
	}
}

// FuzzCodec checks the codec against encoding/json. Any line either
// decoder accepts, encoding/json accepts too, with an equal value; the
// request and response built from the inputs encode to encoding/json's
// bytes, and decode back to themselves.
func FuzzCodec(f *testing.F) {
	for i, seed := range requestLineSeeds {
		f.Add([]byte(seed), seed, uint64(i)*0x9e3779b97f4a7c15)
	}
	for i, tc := range codecCases {
		f.Add(appendResponse(nil, &tc.resp), tc.resp.Err, uint64(i))
	}
	f.Fuzz(func(t *testing.T, line []byte, s string, n uint64) {
		var req, jreq Request
		if decodeRequest(line, &req) == nil {
			if err := json.Unmarshal(line, &jreq); err != nil || !reflect.DeepEqual(req, jreq) {
				t.Fatalf("%q: decoded %+v; encoding/json: %+v, %v", line, req, jreq, err)
			}
		}
		var resp, jresp Response
		if decodeResponse(line, &resp) == nil {
			if err := json.Unmarshal(line, &jresp); err != nil || !reflect.DeepEqual(resp, jresp) {
				t.Fatalf("%q: decoded %+v; encoding/json: %+v, %v", line, resp, jresp, err)
			}
		}

		req, resp = fuzzRequest(s, n), fuzzResponse(s, n)
		reqLine, respLine := appendRequest(nil, &req), appendResponse(nil, &resp)
		if want := jsonLine(t, &req); !bytes.Equal(reqLine, want) {
			t.Fatalf("request %+v:\n got %s\nwant %s", req, reqLine, want)
		}
		if want := jsonLine(t, &resp); !bytes.Equal(respLine, want) {
			t.Fatalf("response %+v:\n got %s\nwant %s", resp, respLine, want)
		}
		if !utf8.ValidString(s) {
			return // encoding replaced the invalid bytes; nothing round-trips
		}
		var req2 Request
		var resp2 Response
		if err := decodeRequest(reqLine, &req2); err != nil || !reflect.DeepEqual(req2, req) {
			t.Fatalf("request %+v decodes to %+v, %v", req, req2, err)
		}
		if err := decodeResponse(respLine, &resp2); err != nil || !reflect.DeepEqual(resp2, resp) {
			t.Fatalf("response %+v decodes to %+v, %v", resp, resp2, err)
		}
	})
}

// fuzzRequest builds a request from s and n, n's low bits choosing the
// fields that are present.
func fuzzRequest(s string, n uint64) Request {
	r := Request{Op: s}
	if n&1 != 0 {
		r.Family = n
	}
	if n&2 != 0 {
		r.Seq = n >> 7
	}
	if n&4 != 0 {
		r.Key = s
	}
	if n&8 != 0 && s != "" {
		r.Val = []byte(s)
	}
	if n&16 != 0 {
		r.Sites = []uint32{uint32(n), uint32(n >> 32)}
	}
	if n&32 != 0 {
		r.Peers = map[string]string{s: s, "1": s + "<&>", strings.ToUpper(s): ""}
	}
	if n&64 != 0 {
		r.Protocol = s
	}
	return r
}

// fuzzResponse is fuzzRequest's counterpart.
func fuzzResponse(s string, n uint64) Response {
	r := Response{OK: n&1 != 0, Aborted: n&2 != 0, Present: n&4 != 0}
	if n&8 != 0 {
		r.Err, r.Outcome, r.Code = s, s, s
	}
	if n&16 != 0 {
		r.Site, r.Family, r.Seq = uint32(n>>32), n, n>>9
	}
	if n&32 != 0 && s != "" {
		r.Val, r.ShardMap = []byte(s), []byte(s+s)
	}
	if n&64 != 0 {
		k := int(int64(n))
		r.Stats = &Stats{Sent: k, Recv: -k, Dropped: k >> 3, Oversize: 1, Retransmits: k >> 40,
			Inquiries: -1, WALDeviceWrites: k >> 20}
		if n&128 != 0 {
			r.Stats.Err, r.Stats.WALErr = s, s+"!"
		}
	}
	return r
}

// writeKey256 is the hot exchange: one 256-byte write and its answer.
var (
	writeKey256     = Request{Op: OpWriteKey, Family: 1<<32 | 12345, Seq: 1, Key: "k0000042.1", Val: bytes.Repeat([]byte("v"), 256)}
	writeKey256Resp = Response{OK: true}
)

// TestCodecAllocs pins the codec's cost: encoding into a reused buffer
// allocates nothing, and decoding a write allocates its key and value.
func TestCodecAllocs(t *testing.T) {
	buf := make([]byte, 0, 1024)
	stats := Response{OK: true, Stats: &Stats{Sent: 1, Err: "e"}}
	for name, f := range map[string]func(){
		"encode writekey":     func() { buf = appendRequest(buf[:0], &writeKey256) },
		"encode commit":       func() { buf = appendRequest(buf[:0], &Request{Op: OpCommit, Family: 9, Seq: 1, Protocol: "nb"}) },
		"encode read answer":  func() { buf = appendResponse(buf[:0], &Response{OK: true, Val: writeKey256.Val}) },
		"encode stats answer": func() { buf = appendResponse(buf[:0], &stats) },
	} {
		if n := testing.AllocsPerRun(100, f); n != 0 {
			t.Errorf("%s: %v allocations, want 0", name, n)
		}
	}
	line := appendRequest(nil, &writeKey256)
	if n := testing.AllocsPerRun(100, func() {
		var r Request
		if err := decodeRequest(line, &r); err != nil {
			t.Fatal(err)
		}
	}); n > 2 {
		t.Errorf("decode writekey: %v allocations, want at most 2 (key and value)", n)
	}
	commit := appendResponse(nil, &Response{OK: true, Outcome: "COMMIT"})
	if n := testing.AllocsPerRun(100, func() {
		var r Response
		if err := decodeResponse(commit, &r); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("decode commit answer: %v allocations, want 0", n)
	}
}

// BenchmarkCodecWriteKey256 is one write round trip's four codec steps:
// the client encodes the request, the server decodes it and encodes
// its answer, the client decodes that.
func BenchmarkCodecWriteKey256(b *testing.B) {
	b.ReportAllocs()
	var reqBuf, respBuf []byte
	for i := 0; i < b.N; i++ {
		reqBuf = appendRequest(reqBuf[:0], &writeKey256)
		var req Request
		if err := decodeRequest(reqBuf[:len(reqBuf)-1], &req); err != nil {
			b.Fatal(err)
		}
		respBuf = appendResponse(respBuf[:0], &writeKey256Resp)
		var resp Response
		if err := decodeResponse(respBuf[:len(respBuf)-1], &resp); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkJSONWriteKey256 is the same round trip through encoding/json,
// the codec's reference.
func BenchmarkJSONWriteKey256(b *testing.B) {
	b.ReportAllocs()
	var out bytes.Buffer
	enc := json.NewEncoder(&out)
	for i := 0; i < b.N; i++ {
		line, err := json.Marshal(&writeKey256)
		if err != nil {
			b.Fatal(err)
		}
		var req Request
		if err := json.Unmarshal(line, &req); err != nil {
			b.Fatal(err)
		}
		out.Reset()
		if err := enc.Encode(&writeKey256Resp); err != nil {
			b.Fatal(err)
		}
		var resp Response
		if err := json.Unmarshal(out.Bytes(), &resp); err != nil {
			b.Fatal(err)
		}
	}
}
