package ctl

import (
	"encoding/base64"
	"fmt"
	"math"
	"strconv"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"

	"camelot/internal/det"
)

// The control plane's one codec, used by client and server alike. The
// encoders write exactly the bytes json.Marshal writes for Request,
// Response and Stats — field order, omitempty, HTML-safe string
// escaping, standard base64 for byte fields, sorted peers keys — plus
// the line's newline, so old and new drivers and nodes interoperate.
// The decoder is one pass over these flat objects: keys in any order
// and matched exactly, insignificant whitespace and every string
// escape, null for an absent field, integers checked against their
// field's width; an unknown or repeated key is refused.

// appendRequest appends r as one protocol line.
func appendRequest(b []byte, r *Request) []byte {
	b = append(b, `{"op":`...)
	b = appendString(b, r.Op)
	b = appendUint(b, `,"family":`, r.Family)
	b = appendUint(b, `,"seq":`, r.Seq)
	b = appendNonEmpty(b, `,"key":`, r.Key)
	b = appendBytes(b, `,"val":`, r.Val)
	if len(r.Sites) > 0 {
		b = append(b, `,"sites":[`...)
		for i, s := range r.Sites {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendUint(b, uint64(s), 10)
		}
		b = append(b, ']')
	}
	if len(r.Peers) > 0 {
		b = append(b, `,"peers":{`...)
		for i, k := range det.SortedKeys(r.Peers) {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendString(b, k)
			b = append(b, ':')
			b = appendString(b, r.Peers[k])
		}
		b = append(b, '}')
	}
	b = appendNonEmpty(b, `,"protocol":`, r.Protocol)
	return append(b, "}\n"...)
}

// appendResponse appends r as one protocol line.
func appendResponse(b []byte, r *Response) []byte {
	b = append(b, `{"ok":`...)
	b = strconv.AppendBool(b, r.OK)
	b = appendNonEmpty(b, `,"err":`, r.Err)
	b = appendTrue(b, `,"aborted":true`, r.Aborted)
	b = appendUint(b, `,"site":`, uint64(r.Site))
	b = appendUint(b, `,"family":`, r.Family)
	b = appendUint(b, `,"seq":`, r.Seq)
	b = appendBytes(b, `,"val":`, r.Val)
	b = appendTrue(b, `,"present":true`, r.Present)
	b = appendNonEmpty(b, `,"outcome":`, r.Outcome)
	if st := r.Stats; st != nil {
		b = appendInt(b, `,"stats":{"sent":`, st.Sent)
		b = appendInt(b, `,"recv":`, st.Recv)
		b = appendInt(b, `,"dropped":`, st.Dropped)
		b = appendInt(b, `,"oversize":`, st.Oversize)
		b = appendNonEmpty(b, `,"err":`, st.Err)
		b = appendInt(b, `,"retransmits":`, st.Retransmits)
		b = appendInt(b, `,"inquiries":`, st.Inquiries)
		b = appendInt(b, `,"wal_device_writes":`, st.WALDeviceWrites)
		b = appendNonEmpty(b, `,"wal_err":`, st.WALErr)
		b = append(b, '}')
	}
	b = appendNonEmpty(b, `,"code":`, r.Code)
	b = appendBytes(b, `,"shardmap":`, r.ShardMap)
	return append(b, "}\n"...)
}

// The field appenders write `name` (its key and colon) and the value,
// or nothing for the zero value of an omitempty field.

func appendUint(b []byte, name string, v uint64) []byte {
	if v == 0 {
		return b
	}
	return strconv.AppendUint(append(b, name...), v, 10)
}

func appendInt(b []byte, name string, v int) []byte {
	return strconv.AppendInt(append(b, name...), int64(v), 10)
}

func appendTrue(b []byte, member string, v bool) []byte {
	if !v {
		return b
	}
	return append(b, member...)
}

func appendNonEmpty(b []byte, name, s string) []byte {
	if s == "" {
		return b
	}
	return appendString(append(b, name...), s)
}

func appendBytes(b []byte, name string, v []byte) []byte {
	if len(v) == 0 {
		return b
	}
	b = append(append(b, name...), '"')
	return append(base64.StdEncoding.AppendEncode(b, v), '"')
}

// appendString quotes s as json.Marshal does: <, > and & escaped for
// HTML, invalid UTF-8 replaced by U+FFFD, U+2028 and U+2029 escaped.
func appendString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(append(b, s[start:i]...), `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(append(b, s[start:i]...), '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(append(b, s[start:]...), '"')
}

// The keys of each object, in encoding order; decodeRequest,
// decodeResponse and decoder.value list the fields in the same order.
var (
	requestKeys  = []string{"op", "family", "seq", "key", "val", "sites", "peers", "protocol"}
	responseKeys = []string{"ok", "err", "aborted", "site", "family", "seq", "val", "present", "outcome", "stats", "code", "shardmap"}
	statsKeys    = []string{"sent", "recv", "dropped", "oversize", "err", "retransmits", "inquiries", "wal_device_writes", "wal_err"}
)

// decodeRequest decodes one request line into r.
func decodeRequest(line []byte, r *Request) error {
	d := decoder{b: line}
	d.object(requestKeys, []any{&r.Op, &r.Family, &r.Seq, &r.Key, &r.Val, &r.Sites, &r.Peers, &r.Protocol})
	return d.end()
}

// decodeResponse decodes one response line into r.
func decodeResponse(line []byte, r *Response) error {
	d := decoder{b: line}
	d.object(responseKeys, []any{&r.OK, &r.Err, &r.Aborted, &r.Site, &r.Family, &r.Seq, &r.Val,
		&r.Present, &r.Outcome, &r.Stats, &r.Code, &r.ShardMap})
	return d.end()
}

// object reads an object whose member keys[i], if present, decodes into
// the field fields[i] points to.
func (d *decoder) object(keys []string, fields []any) {
	var seen uint16
	for more := d.open('{', '}'); more; more = d.next('}') {
		if i := d.field(keys, &seen); i >= 0 {
			d.value(fields[i])
		}
	}
}

// value decodes one value into the field p points to.
func (d *decoder) value(p any) {
	switch p := p.(type) {
	case *string:
		*p = d.string()
	case *bool:
		*p = d.bool()
	case *int:
		*p = d.int()
	case *uint32:
		*p = uint32(d.uint(32))
	case *uint64:
		*p = d.uint(64)
	case *[]byte:
		*p = d.bytes()
	case *[]uint32:
		*p = []uint32{}
		for more := d.open('[', ']'); more; more = d.next(']') {
			*p = append(*p, uint32(d.uint(32)))
		}
	case *map[string]string:
		*p = map[string]string{}
		for more := d.open('{', '}'); more; more = d.next('}') {
			k := string(d.str())
			d.expect(':')
			(*p)[k] = d.string()
		}
	case **Stats:
		st := new(Stats)
		d.object(statsKeys, []any{&st.Sent, &st.Recv, &st.Dropped, &st.Oversize, &st.Err,
			&st.Retransmits, &st.Inquiries, &st.WALDeviceWrites, &st.WALErr})
		*p = st
	default:
		panic("ctl: a field type the decoder does not know")
	}
}

// decoder reads one line. Its first error stops it: it jumps to the end
// of the line, so every later read fails and returns a zero value.
type decoder struct {
	b   []byte
	i   int
	err error
	buf []byte // the last string read, when it had to be unescaped
}

func (d *decoder) fail(format string, a ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, a...)
	}
	d.i = len(d.b)
}

func (d *decoder) syntax() {
	if d.i >= len(d.b) {
		d.fail("unexpected end of line")
		return
	}
	d.fail("invalid character %q at byte %d", d.b[d.i], d.i)
}

func (d *decoder) ws() {
	for d.i < len(d.b) {
		switch d.b[d.i] {
		case ' ', '\t', '\n', '\r':
			d.i++
		default:
			return
		}
	}
}

func (d *decoder) expect(c byte) {
	d.ws()
	if d.i < len(d.b) && d.b[d.i] == c {
		d.i++
		return
	}
	d.syntax()
}

// literal consumes s if it comes next.
func (d *decoder) literal(s string) bool {
	d.ws()
	if len(d.b)-d.i >= len(s) && string(d.b[d.i:d.i+len(s)]) == s {
		d.i += len(s)
		return true
	}
	return false
}

// open consumes an object's or array's opening delimiter and reports
// whether a member follows it.
func (d *decoder) open(open, close byte) bool {
	d.expect(open)
	d.ws()
	if d.i < len(d.b) && d.b[d.i] == close {
		d.i++
		return false
	}
	return d.err == nil
}

// next consumes what follows a member and reports whether another does.
func (d *decoder) next(close byte) bool {
	d.ws()
	if d.i < len(d.b) {
		switch d.b[d.i] {
		case ',':
			d.i++
			return true
		case close:
			d.i++
			return false
		}
	}
	d.syntax()
	return false
}

// end checks that nothing but whitespace follows the object.
func (d *decoder) end() error {
	d.ws()
	if d.i < len(d.b) {
		d.syntax()
	}
	return d.err
}

// field reads a member's key and colon and returns the key's index in
// keys. It returns -1 when the value is null, consumed, so the field
// stays absent, and when the key is unknown or repeated, which stops
// the decoder.
func (d *decoder) field(keys []string, seen *uint16) int {
	k := d.str()
	d.expect(':')
	if d.err != nil {
		return -1
	}
	for i, name := range keys {
		if string(k) != name {
			continue
		}
		if *seen&(1<<i) != 0 {
			d.fail("duplicate key %q", name)
			return -1
		}
		*seen |= 1 << i
		if d.literal("null") {
			return -1
		}
		return i
	}
	d.fail("unknown key %q", string(k))
	return -1
}

func (d *decoder) bool() bool {
	switch {
	case d.literal("true"):
		return true
	case !d.literal("false"):
		d.syntax()
	}
	return false
}

// uint reads an unsigned integer that fits in bits.
func (d *decoder) uint(bits int) uint64 {
	d.ws()
	return d.digits(math.MaxUint64 >> (64 - bits))
}

// int reads a signed integer that fits in an int.
func (d *decoder) int() int {
	d.ws()
	if d.i < len(d.b) && d.b[d.i] == '-' {
		d.i++
		return int(-d.digits(-math.MinInt))
	}
	return int(d.digits(math.MaxInt))
}

// digits reads a JSON integer's digits, at most max.
func (d *decoder) digits(max uint64) uint64 {
	start := d.i
	var n uint64
	for ; d.i < len(d.b) && '0' <= d.b[d.i] && d.b[d.i] <= '9'; d.i++ {
		c := uint64(d.b[d.i] - '0')
		if n > (max-c)/10 {
			d.fail("integer at byte %d out of range", start)
			return 0
		}
		n = n*10 + c
	}
	switch {
	case d.i == start:
		d.syntax()
	case d.b[start] == '0' && d.i > start+1:
		d.i = start + 1
		d.syntax()
	case d.i < len(d.b) && (d.b[d.i] == '.' || d.b[d.i] == 'e' || d.b[d.i] == 'E'):
		d.fail("number at byte %d is not an integer", start)
	}
	return n
}

// bytes reads a base64 string, decoded as json.Unmarshal decodes it.
func (d *decoder) bytes() []byte {
	s := d.str()
	if d.err != nil {
		return nil
	}
	b := make([]byte, base64.StdEncoding.DecodedLen(len(s)))
	n, err := base64.StdEncoding.Decode(b, s)
	if err != nil {
		d.fail("%v", err)
		return nil
	}
	return b[:n]
}

// string reads a string. The protocol's own vocabulary — ops, commit
// protocols, outcomes, error codes — comes back as the constant,
// without an allocation.
func (d *decoder) string() string {
	s := d.str()
	for _, c := range vocabulary {
		if string(s) == c {
			return c
		}
	}
	return string(s)
}

var vocabulary = []string{
	OpPing, OpPeers, OpBegin, OpAddSites, OpCommit, OpAbort, OpOutcome,
	OpProbe, OpStats, OpWriteKey, OpReadKey, OpPeekKey, OpShardMap,
	"2pc", "nb", "paxos", "COMMIT", "ABORT", "UNKNOWN",
	CodeNoShard, CodeWrongSite, CodeNoKey,
}

// str reads a string and returns its unescaped bytes: a slice of the
// line when it has no escapes and is valid UTF-8, else of d.buf, which
// the next string overwrites. It unescapes as json.Unmarshal does: a
// lone surrogate and each byte of invalid UTF-8 become U+FFFD.
func (d *decoder) str() []byte {
	d.expect('"')
	start := d.i
	for d.i < len(d.b) {
		c := d.b[d.i]
		switch {
		case c == '"':
			d.i++
			return d.b[start : d.i-1]
		case c == '\\' || c < ' ':
			return d.unescape(start)
		case c < utf8.RuneSelf:
			d.i++
		default:
			r, size := utf8.DecodeRune(d.b[d.i:])
			if r == utf8.RuneError && size == 1 {
				return d.unescape(start)
			}
			d.i += size
		}
	}
	d.syntax()
	return nil
}

// unescape finishes the string str began at start, from d.i on.
func (d *decoder) unescape(start int) []byte {
	buf := append(d.buf[:0], d.b[start:d.i]...)
	for d.i < len(d.b) {
		switch c := d.b[d.i]; {
		case c == '"':
			d.i++
			d.buf = buf
			return buf
		case c < ' ':
			d.syntax()
			return nil
		case c == '\\':
			if d.i+1 == len(d.b) {
				d.i++
				d.syntax()
				return nil
			}
			d.i += 2
			switch e := d.b[d.i-1]; e {
			case '"', '\\', '/':
				buf = append(buf, e)
			case 'b':
				buf = append(buf, '\b')
			case 'f':
				buf = append(buf, '\f')
			case 'n':
				buf = append(buf, '\n')
			case 'r':
				buf = append(buf, '\r')
			case 't':
				buf = append(buf, '\t')
			case 'u':
				r := hex4(d.b[d.i:])
				if r < 0 {
					d.syntax()
					return nil
				}
				d.i += 4
				if utf16.IsSurrogate(r) {
					r2 := rune(-1)
					if len(d.b)-d.i >= 6 && d.b[d.i] == '\\' && d.b[d.i+1] == 'u' {
						r2 = hex4(d.b[d.i+2:])
					}
					if r = utf16.DecodeRune(r, r2); r != unicode.ReplacementChar {
						d.i += 6
					}
				}
				buf = utf8.AppendRune(buf, r)
			default:
				d.i--
				d.syntax()
				return nil
			}
		case c < utf8.RuneSelf:
			buf = append(buf, c)
			d.i++
		default:
			r, size := utf8.DecodeRune(d.b[d.i:])
			buf = utf8.AppendRune(buf, r)
			d.i += size
		}
	}
	d.syntax()
	return nil
}

// hex4 parses the four hex digits b starts with, or returns -1.
func hex4(b []byte) rune {
	if len(b) < 4 {
		return -1
	}
	var r rune
	for _, c := range b[:4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}
