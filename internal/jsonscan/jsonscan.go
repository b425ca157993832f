// Package jsonscan reads one spelling of JSON in a single pass, without
// reflection: objects whose member names are exact-case ASCII, each at
// most once; ASCII strings without escapes or control bytes; integer
// literals that fit in int64; and arrays of those. It is the fast half of the
// daemon's request decoder, and nothing more: a Scanner never reports an
// error, it declines. Any input outside that spelling —
// a null, a fraction, an exponent, an escape, a non-ASCII byte, a
// case-folded or repeated name, malformed JSON — makes the scanner
// decline, and the caller must then decode the whole input with
// encoding/json, which stays the reference for every other spelling and
// the source of every error message.
package jsonscan

import "math"

// Scanner walks one JSON text. Every method is a no-op once the scanner
// has declined, so a decoder may read a whole structure and ask OK once
// at the end.
type Scanner struct {
	data []byte
	text string // a copy of data, made by the first Text
	pos  int
	bad  bool
}

// New returns a scanner at the start of data.
func New(data []byte) *Scanner { return &Scanner{data: data} }

// OK reports whether everything read so far was in the scanner's
// spelling.
func (s *Scanner) OK() bool { return !s.bad }

// Decline marks the input as outside the spelling.
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

// Next steps through the members of an object (open '{') or the
// elements of an array (open '['): call it with i = 0, 1, 2, … before
// each item. It consumes the opening bracket at i = 0 and a comma
// before every later item, and returns false at the closing bracket,
// which it consumes, or on a decline. A trailing comma declines when the
// caller then reads the missing item.
func (s *Scanner) Next(open byte, i int) bool {
	c := s.peek()
	if i == 0 {
		if c != open {
			s.bad = true
			return false
		}
		s.pos++
		c = s.peek()
	}
	switch {
	case c == open+2: // '{'+2 == '}', '['+2 == ']'
		s.pos++
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
// in names. It declines a name that is not exactly one of names, and one
// whose bit is already set in seen (a repeated member), and then returns
// -1. names may hold at most 64 entries.
func (s *Scanner) Member(names []string, seen *uint64) int {
	start, end := s.str()
	name := s.data[start:end]
	s.expect(':')
	if s.bad {
		return -1
	}
	for i, n := range names {
		if n == string(name) {
			if *seen&(1<<i) != 0 {
				break
			}
			*seen |= 1 << i
			return i
		}
	}
	s.bad = true
	return -1
}

// Text reads a string of ASCII bytes without escapes or control bytes
// (see plain). The first call copies the whole input into one Go string,
// and every string Text returns is a substring of that copy, so n
// strings cost one allocation, not n (and keep the copy alive while any
// of them is).
func (s *Scanner) Text() string {
	start, end := s.str()
	if start == end {
		return ""
	}
	if s.text == "" {
		s.text = string(s.data)
	}
	return s.text[start:end]
}

// str reads a string and returns the offsets of its contents, an empty
// span on a decline.
func (s *Scanner) str() (start, end int) {
	s.expect('"')
	if s.bad {
		return 0, 0
	}
	start = s.pos
	for ; s.pos < len(s.data) && plain[s.data[s.pos]]; s.pos++ {
	}
	if s.pos == len(s.data) || s.data[s.pos] != '"' {
		s.bad = true // an escape, a control or non-ASCII byte, or no end
		return 0, 0
	}
	s.pos++
	return start, s.pos - 1
}

// plain marks the bytes a string may hold as they are: ASCII from the
// space up, DEL included (encoding/json keeps it too), but not the quote
// or the backslash.
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
