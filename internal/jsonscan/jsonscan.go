// Package jsonscan decodes JSON in a single pass, without reflection, for
// the shapes the daemon's requests and the graph interchange format use:
// objects of known members whose values are int64 integers, strings,
// arrays of them and objects of the same kind. It reads whatever
// encoding/json accepts for such Go types, and reads it the same way:
// escapes and invalid UTF-8 in strings, member names matched exactly and
// then under Unicode case folding, repeated members (see Array), and null.
//
// A Scanner never reports an error, it declines. It declines exactly the
// inputs encoding/json refuses for these types — malformed JSON, an
// unknown member, a value of the wrong kind, an integer with a fraction
// or an exponent or past int64, bytes after the value — and the caller
// then runs encoding/json over the input only to word the error (Explain).
package jsonscan

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"unicode/utf16"
	"unicode/utf8"
)

// Explain returns encoding/json's error for data decoded into v, unknown
// members refused, or the byte after the value if anything but whitespace
// follows it; nil if encoding/json reads data. It is how a caller words
// an input a Scanner declined.
func Explain(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if rest := bytes.TrimLeft(data[dec.InputOffset():], " \t\r\n"); len(rest) > 0 {
		return fmt.Errorf("invalid character %q after top-level value", rest[0])
	}
	return nil
}

// maxDepth is encoding/json's nesting limit: deeper input is an error.
const maxDepth = 10000

// Scanner walks one JSON text. Every method is a no-op once the scanner
// has declined, so a decoder may read a whole structure and ask OK once
// at the end. A copy of a Scanner is a saved position: assigning it back
// rewinds the scanner and withdraws any decline since.
type Scanner struct {
	data  []byte
	text  string // a copy of data, made by the first Text of a plain string
	pos   int
	depth int // objects and arrays open at pos
	bad   bool
}

// New returns a scanner at the start of data.
func New(data []byte) *Scanner { return &Scanner{data: data} }

// OK reports whether everything read so far is what encoding/json would
// accept.
func (s *Scanner) OK() bool { return !s.bad }

// Decline marks the input as one encoding/json refuses.
func (s *Scanner) Decline() { s.bad = true }

// Pos returns the offset of the next unread byte.
func (s *Scanner) Pos() int { return s.pos }

// Space skips JSON whitespace.
func (s *Scanner) Space() {
	for s.pos < len(s.data) && s.data[s.pos] <= ' ' {
		switch s.data[s.pos] {
		case ' ', '\t', '\n', '\r':
			s.pos++
		default:
			return
		}
	}
}

// End reports whether only whitespace is left and nothing was declined.
func (s *Scanner) End() bool {
	s.Space()
	return !s.bad && s.pos == len(s.data)
}

// peek skips whitespace and returns the next byte, 0 at the end or
// after a decline.
func (s *Scanner) peek() byte {
	s.Space()
	if s.bad || s.pos == len(s.data) {
		return 0
	}
	return s.data[s.pos]
}

// expect consumes c after optional whitespace, or declines.
func (s *Scanner) expect(c byte) {
	if s.peek() != c {
		s.bad = true
		return
	}
	s.pos++
}

// Null consumes the literal null, if it comes next, and reports whether
// it did. encoding/json leaves a scalar alone on null and sets a slice to
// nil, so a decoder asks Null before reading either.
func (s *Scanner) Null() bool {
	if s.peek() != 'n' {
		return false
	}
	s.literal("null")
	return !s.bad
}

// literal consumes lit, which must come next, or declines.
func (s *Scanner) literal(lit string) {
	if len(s.data)-s.pos < len(lit) || string(s.data[s.pos:s.pos+len(lit)]) != lit {
		s.bad = true
		return
	}
	s.pos += len(lit)
}

// Next steps through the members of an object (open '{') or the
// elements of an array (open '['): call it with i = 0, 1, 2, … before
// each item. It consumes the opening bracket at i = 0 and a comma
// before every later item, and returns false at the closing bracket,
// which it consumes, or on a decline. A trailing comma declines when the
// caller then reads the missing item.
func (s *Scanner) Next(open byte, i int) bool {
	c := s.peek()
	if i == 0 {
		if c != open || s.depth == maxDepth {
			s.bad = true
			return false
		}
		s.pos++
		s.depth++
		c = s.peek()
	}
	switch {
	case c == open+2: // '{'+2 == '}', '['+2 == ']'
		s.pos++
		s.depth--
		return false
	case i == 0:
		return !s.bad
	case c == ',':
		s.pos++
		return true
	}
	s.bad = true
	return false
}

// Member reads a member name and its colon and returns the name's index
// in names: the name exactly equal to the unescaped member name, else
// the first equal to it under Unicode case folding (strings.EqualFold,
// which is how encoding/json matches a field). It declines a name that
// matches none, and then returns -1. A name may come more than once; a
// decoder reads each occurrence over the last, as encoding/json does.
func (s *Scanner) Member(names []string) int {
	start, end, raw := s.str()
	s.expect(':')
	if s.bad {
		return -1
	}
	name := s.data[start:end]
	if !raw {
		name = unquote(name)
	}
	for i, n := range names {
		if n == string(name) {
			return i
		}
	}
	for i, n := range names {
		if strings.EqualFold(n, string(name)) {
			return i
		}
	}
	s.bad = true
	return -1
}

// Text reads a string. A string that stands for itself — no escape, valid
// UTF-8 — is a substring of one copy of the whole input, made by the
// first such Text, so n strings cost one allocation, not n (and keep the
// copy alive while any of them is). Any other string is unescaped into
// its own allocation, invalid UTF-8 and lone surrogates becoming U+FFFD.
func (s *Scanner) Text() string {
	start, end, raw := s.str()
	switch {
	case s.bad || start == end:
		return ""
	case !raw:
		return string(unquote(s.data[start:end]))
	case s.text == "":
		s.text = string(s.data)
	}
	return s.text[start:end]
}

// str reads a string and returns the offsets of its contents and whether
// they stand for themselves; an empty span on a decline. It declines a
// control byte, an escape JSON does not have and a missing end quote.
func (s *Scanner) str() (start, end int, raw bool) {
	s.expect('"')
	if s.bad {
		return 0, 0, false
	}
	start = s.pos
	for s.pos < len(s.data) && plain[s.data[s.pos]] {
		s.pos++
	}
	if s.pos < len(s.data) && s.data[s.pos] == '"' {
		s.pos++
		return start, s.pos - 1, true
	}
	return s.strRest(start)
}

// strRest is str past the first byte that does not stand for itself: an
// escape, a non-ASCII byte, or a byte that ends or breaks the string.
func (s *Scanner) strRest(start int) (int, int, bool) {
	raw := true
	for s.pos < len(s.data) {
		n := 0
		switch c := s.data[s.pos]; {
		case plain[c]:
			n = 1
		case c == '"':
			s.pos++
			return start, s.pos - 1, raw
		case c == '\\':
			n, raw = escapeLen(s.data[s.pos:]), false
		case c >= utf8.RuneSelf:
			var r rune
			r, n = utf8.DecodeRune(s.data[s.pos:])
			raw = raw && !(r == utf8.RuneError && n == 1)
		}
		if n == 0 {
			break // a control byte or a bad escape
		}
		s.pos += n
	}
	s.bad = true
	return 0, 0, false
}

// escapeLen returns the length of the escape at the start of b, 0 if it
// is not one JSON has.
func escapeLen(b []byte) int {
	switch {
	case len(b) >= 2 && unescape[b[1]] != 0:
		return 2
	case len(b) >= 6 && b[1] == 'u' && hex4(b[2:]) >= 0:
		return 6
	}
	return 0
}

// hex4 reads four hex digits, -1 if b does not start with four.
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

// unescape maps the byte after a backslash to what it stands for (all
// but \u, which unquote decodes).
var unescape = [256]byte{'"': '"', '\\': '\\', '/': '/', 'b': '\b', 'f': '\f', 'n': '\n', 'r': '\r', 't': '\t'}

// unquote decodes the contents of a string str accepted, as encoding/json
// does: escapes become what they stand for, a surrogate pair one rune,
// and a lone surrogate or a byte of invalid UTF-8 U+FFFD.
func unquote(b []byte) []byte {
	out := make([]byte, 0, len(b)+utf8.UTFMax)
	for i := 0; i < len(b); {
		switch c := b[i]; {
		case c == '\\' && b[i+1] != 'u':
			out = append(out, unescape[b[i+1]])
			i += 2
		case c == '\\':
			r := hex4(b[i+2:])
			i += 6
			if utf16.IsSurrogate(r) {
				lo := rune(-1)
				if i+1 < len(b) && b[i] == '\\' && b[i+1] == 'u' {
					lo = hex4(b[i+2:])
				}
				if r = utf16.DecodeRune(r, lo); r != utf8.RuneError {
					i += 6
				}
			}
			out = utf8.AppendRune(out, r)
		case c < utf8.RuneSelf:
			out = append(out, c)
			i++
		default:
			r, n := utf8.DecodeRune(b[i:])
			out = utf8.AppendRune(out, r)
			i += n
		}
	}
	return out
}

// plain marks the bytes a string may hold that stand for themselves
// without a closer look: ASCII from the space up, DEL included, but not
// the quote or the backslash.
var plain = func() (t [256]bool) {
	for c := 0x20; c < 0x80; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// Int reads an integer literal that fits in int64. A fraction or an
// exponent is left unread, so the caller's next read declines it; a
// leading zero followed by more digits declines at once.
func (s *Scanner) Int() int64 {
	if s.peek() == 0 {
		s.bad = true
		return 0
	}
	neg := s.data[s.pos] == '-'
	if neg {
		s.pos++
	}
	start := s.pos
	var u uint64
	for ; s.pos < len(s.data); s.pos++ {
		d := s.data[s.pos] - '0'
		if d > 9 {
			break
		}
		if u > math.MaxInt64/10+1 || (s.pos > start && s.data[start] == '0') {
			s.bad = true // too long, or a leading zero
			return 0
		}
		u = u*10 + uint64(d)
	}
	limit := uint64(math.MaxInt64)
	if neg {
		limit++
	}
	if s.pos == start || u > limit {
		s.bad = true
		return 0
	}
	if neg {
		return -int64(u-1) - 1 // -(1<<63) has no positive twin
	}
	return int64(u)
}

// Array decodes an array into a the way encoding/json decodes into a
// slice: null makes it nil and [] a new empty slice; otherwise elem
// decodes element i into a[i] — a slot below cap(a) is reused as it is,
// whatever an earlier decode left in it, and one past cap(a) is appended
// zeroed — and a is cut to the array's length. A null element leaves its
// slot as it is. So a member that comes twice decodes its second array
// over its first.
func Array[T any](s *Scanner, a []T, elem func(*Scanner, *T)) []T {
	if s.Null() {
		return nil
	}
	i := 0
	for ; s.Next('[', i); i++ {
		if i < cap(a) {
			a = a[:i+1]
		} else {
			var zero T
			a = append(a, zero)
		}
		if !s.Null() {
			elem(s, &a[i])
		}
	}
	if i == 0 {
		return []T{}
	}
	return a[:i]
}

// Skip reads one JSON value of any kind and keeps nothing of it. It
// declines malformed JSON and nesting deeper than encoding/json allows.
func (s *Scanner) Skip() {
	switch c := s.peek(); c {
	case '{', '[':
		for i := 0; s.Next(c, i); i++ {
			if c == '{' {
				s.str()
				s.expect(':')
			}
			s.Skip()
		}
	case '"':
		s.str()
	case 't':
		s.literal("true")
	case 'f':
		s.literal("false")
	case 'n':
		s.literal("null")
	default:
		s.number()
	}
}

// number reads a number literal of any form JSON allows.
func (s *Scanner) number() {
	if s.peek() == '-' {
		s.pos++
	}
	switch {
	case s.pos < len(s.data) && s.data[s.pos] == '0':
		s.pos++
	case !s.digits():
		s.bad = true
		return
	}
	if s.pos < len(s.data) && s.data[s.pos] == '.' {
		s.pos++
		if !s.digits() {
			s.bad = true
			return
		}
	}
	if s.pos < len(s.data) && s.data[s.pos]|0x20 == 'e' {
		s.pos++
		if s.pos < len(s.data) && (s.data[s.pos] == '+' || s.data[s.pos] == '-') {
			s.pos++
		}
		if !s.digits() {
			s.bad = true
		}
	}
}

// digits reads a run of decimal digits and reports whether it was not
// empty.
func (s *Scanner) digits() bool {
	start := s.pos
	for s.pos < len(s.data) && s.data[s.pos]-'0' <= 9 {
		s.pos++
	}
	return s.pos > start
}
