package plancache

import (
	"crypto/sha256"
	"encoding/binary"
)

// Digest builds a Key from a canonical serialisation of tagged fields.
// Every field is framed unambiguously — uvarint(len(tag)) ‖ tag ‖ a kind
// byte ‖ the value's own framing — so no concatenation of fields can
// collide with a different field sequence, and the same logical content
// always produces the same bytes regardless of how the caller's wire
// format ordered it. Callers are expected to write fields in a fixed
// code-determined order after normalising their input (defaults applied,
// lists canonicalised); the JSON layer's field order therefore never
// reaches the hash. The framed fields accumulate in one buffer, hashed
// once by Sum.
type Digest struct {
	buf []byte
}

// Field kind bytes, one per Digest method, so a string value can never
// alias an int or list framing.
const (
	kindStr  = 0x01
	kindInt  = 0x02
	kindInts = 0x03
)

// NewDigest returns an empty digest.
func NewDigest() *Digest { return &Digest{buf: make([]byte, 0, 1024)} }

func (d *Digest) tag(tag string, kind byte) {
	d.buf = binary.AppendUvarint(d.buf, uint64(len(tag)))
	d.buf = append(d.buf, tag...)
	d.buf = append(d.buf, kind)
}

// Str writes a tagged string field.
func (d *Digest) Str(tag, v string) {
	d.tag(tag, kindStr)
	d.buf = binary.AppendUvarint(d.buf, uint64(len(v)))
	d.buf = append(d.buf, v...)
}

// Int writes a tagged integer field.
func (d *Digest) Int(tag string, v int64) {
	d.tag(tag, kindInt)
	d.buf = binary.AppendVarint(d.buf, v)
}

// Ints writes a tagged integer-list field (length-prefixed, so an empty
// list is distinct from an absent field).
func (d *Digest) Ints(tag string, vs []int64) {
	d.tag(tag, kindInts)
	d.buf = binary.AppendUvarint(d.buf, uint64(len(vs)))
	for _, v := range vs {
		d.buf = binary.AppendVarint(d.buf, v)
	}
}

// Sum finalises the digest into a Key. The digest remains usable —
// further writes extend the original field sequence.
func (d *Digest) Sum() Key { return sha256.Sum256(d.buf) }
