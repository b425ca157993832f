// Package jsonscantest supports the tests that hold a one-pass decoder
// built on jsonscan to encoding/json: it reads a fuzz seed corpus and
// mutates its inputs toward the spellings such a decoder must decline or
// get exactly right.
package jsonscantest

import (
	"bytes"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

// Corpus returns the inputs of a `go test fuzz v1` corpus directory whose
// one argument is a []byte, keyed by file name.
func Corpus(t testing.TB, dir string) map[string][]byte {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no corpus in %s (%v)", dir, err)
	}
	out := make(map[string][]byte, len(files))
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		_, lit, _ := bytes.Cut(data, []byte("\n"))
		lit = bytes.TrimSpace(lit)
		if !bytes.HasPrefix(lit, []byte("[]byte(")) || !bytes.HasSuffix(lit, []byte(")")) {
			t.Fatalf("%s: not a one-[]byte corpus file", f)
		}
		s, err := strconv.Unquote(string(lit[len("[]byte(") : len(lit)-1]))
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		out[filepath.Base(f)] = []byte(s)
	}
	return out
}

// tokens are the insertions Mutate draws from: escapes (surrogates, lone
// and paired, among them), non-ASCII bytes that fold to ASCII letters (ſ
// to s, the Kelvin sign to k), invalid UTF-8, null, literals that are not
// int64 integers, int64's edges, and the structural bytes and members
// whose misplacement makes JSON malformed or repeated.
var tokens = []string{
	`"`, `\`, `A`, `\"`, `ſ`, "K", `é`, "\x7f", "\x01",
	`\u0073`, `\ud800`, `\udc00`, `\ud83d\ude00`, `\n`, `\q`, "\xff",
	`null`, `true`, `1e3`, `.5`, `0`, `00`, `-`, `-0`, `+1`,
	`9223372036854775807`, `9223372036854775808`, `-9223372036854775808`, `-9223372036854775809`,
	`,`, `:`, `{`, `}`, `[`, `]`, ` `, "\t", "\n",
	`"m": 1, `, `"name": "x", `, `"state": 2, `, `"from": 0, `, `"caps": [], `,
	`"caps": [null], `, `"nodes": [{}], `, `"graph": null, `,
}

// Mutate returns a copy of in with one to three random edits: a byte
// replaced by one of the token bytes, a token inserted, a span of up to
// eight bytes deleted, a span copied elsewhere, or an ASCII letter's case
// flipped.
func Mutate(r *rand.Rand, in []byte) []byte {
	b := append([]byte(nil), in...)
	for range 1 + r.IntN(3) {
		if len(b) == 0 {
			b = append(b, tokens[r.IntN(len(tokens))]...)
			continue
		}
		at := r.IntN(len(b))
		switch r.IntN(5) {
		case 0:
			tok := tokens[r.IntN(len(tokens))]
			b[at] = tok[r.IntN(len(tok))]
		case 1:
			b = append(b[:at], append([]byte(tokens[r.IntN(len(tokens))]), b[at:]...)...)
		case 2:
			b = append(b[:at], b[min(len(b), at+1+r.IntN(8)):]...)
		case 3:
			span := b[at:min(len(b), at+1+r.IntN(24))]
			to := r.IntN(len(b) + 1)
			b = append(b[:to], append(append([]byte(nil), span...), b[to:]...)...)
		case 4:
			if c := b[at] | 0x20; c >= 'a' && c <= 'z' {
				b[at] ^= 0x20
			}
		}
	}
	return b
}
