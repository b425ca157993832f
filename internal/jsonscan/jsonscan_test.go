package jsonscan

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"
)

// abc decodes {"a": int, "b": string, "c": [int], "d": [{"a": int}]} the
// way the daemon's and the graph's decoders use a Scanner.
type abc struct {
	A int64   `json:"a"`
	B string  `json:"b"`
	C []int64 `json:"c"`
	D []struct {
		A int64 `json:"a"`
	} `json:"d"`
}

func decodeABC(data string) (abc, bool) {
	var v abc
	s := New([]byte(data))
	if s.Null() {
		return v, s.End()
	}
	for i := 0; s.Next('{', i); i++ {
		switch s.Member([]string{"a", "b", "c", "d"}) {
		case 0:
			if !s.Null() {
				v.A = s.Int()
			}
		case 1:
			if !s.Null() {
				v.B = s.Text()
			}
		case 2:
			v.C = Array(s, v.C, func(s *Scanner, c *int64) { *c = s.Int() })
		case 3:
			v.D = Array(s, v.D, func(s *Scanner, d *struct {
				A int64 `json:"a"`
			}) {
				for j := 0; s.Next('{', j); j++ {
					if s.Member([]string{"a"}) == 0 && !s.Null() {
						d.A = s.Int()
					}
				}
			})
		}
	}
	return v, s.End()
}

// strictABC is encoding/json's reading of data, as the daemon runs it:
// unknown members and trailing bytes refused.
func strictABC(data string) (abc, error) {
	var v abc
	dec := json.NewDecoder(strings.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&v); err != nil {
		return v, err
	}
	if rest := bytes.TrimLeft([]byte(data[dec.InputOffset():]), " \t\r\n"); len(rest) > 0 {
		return v, fmt.Errorf("trailing %q", rest)
	}
	return v, nil
}

// TestScannerSpelling: the scanner accepts exactly what encoding/json
// accepts for abc, reads it as encoding/json does, nil slices and
// reused slots included, and reads the listed values.
func TestScannerSpelling(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want string // %+v of the reading; "" when refused
	}{
		{`{}`, `{A:0 B: C:[] D:[]}`},
		{`null`, `{A:0 B: C:[] D:[]}`},
		{" \t{ \"a\" :\n-12 , \"b\":\"x y~\x7f\", \"c\": [1, 0, -0] }\r\n", "{A:-12 B:x y~\x7f C:[1 0 0] D:[]}"},
		{`{"c": [], "b": ""}`, `{A:0 B: C:[] D:[]}`},
		{`{"a": 9223372036854775807}`, fmt.Sprintf(`{A:%d B: C:[] D:[]}`, int64(math.MaxInt64))},
		{`{"a": -9223372036854775808}`, fmt.Sprintf(`{A:%d B: C:[] D:[]}`, int64(math.MinInt64))},
		// Escapes, surrogates and invalid UTF-8, as encoding/json unquotes them.
		{`{"b": "\u0041\"\\\/\b\f\n\r\t"}`, "{A:0 B:A\"\\/\b\f\n\r\t C:[] D:[]}"},
		{`{"b": "\ud83d\ude00 é"}`, "{A:0 B:\U0001F600 é C:[] D:[]}"},
		{`{"b": "\ud800x\udc00\ud800\u0041"}`, "{A:0 B:\uFFFDx\uFFFD\uFFFDA C:[] D:[]}"},
		{"{\"b\": \"a\xffb\xed\xa0\x80\"}", "{A:0 B:a\uFFFDb\uFFFD\uFFFD\uFFFD C:[] D:[]}"},
		// Names: exact, escaped, then folded (ſ and the Kelvin sign too).
		{`{"A": 1, "\u0062": "x"}`, `{A:1 B:x C:[] D:[]}`},
		{`{"ſ": 1}`, ``},
		{`{"d": [{"A": 3}]}`, `{A:0 B: C:[] D:[{A:3}]}`},
		// Repeats: the last scalar wins, a repeated array is decoded over
		// the first, [] starts afresh, null leaves a scalar or an element
		// alone and makes a slice nil.
		{`{"a": 1, "a": 2, "a": null}`, `{A:2 B: C:[] D:[]}`},
		{`{"c": [1, 2], "c": [null]}`, `{A:0 B: C:[1] D:[]}`},
		{`{"c": [1, 2], "c": [], "c": [null]}`, `{A:0 B: C:[0] D:[]}`},
		{`{"c": [1, 2], "c": null}`, `{A:0 B: C:[] D:[]}`},
		{`{"d": [{"a": 5}, {"a": 7}], "d": [{}], "d": [{}, {}]}`, `{A:0 B: C:[] D:[{A:5} {A:7}]}`},
		{`{"a": 9223372036854775808}`, ``},
		{`{"a": -9223372036854775809}`, ``},
		{`{"a": 92233720368547758070}`, ``},
		{`{"a": 1.0}`, ``},
		{`{"a": 1e3}`, ``},
		{`{"a": 01}`, ``},
		{`{"a": 00}`, ``},
		{`{"a": -}`, ``},
		{`{"a": +1}`, ``},
		{`{"a": nul}`, ``},
		{`{"a": nullx}`, ``},
		{`{"a": "1"}`, ``},
		{`{"b": 1}`, ``},
		{`{"c": {}}`, ``},
		{`{"e": 1}`, ``},
		{`{"b": "\x"}`, ``},
		{`{"b": "\u12"}`, ``},
		{`{"b": "\'"}`, ``},
		{"{\"b\": \"\x01\"}", ``},
		{`{"b": "open}`, ``},
		{`{"a": 1,}`, ``},
		{`{"c": [1,]}`, ``},
		{`{"c": [,1]}`, ``},
		{`{"a": 1} x`, ``},
		{`{"a": 1}{}`, ``},
		{`{"a" 1}`, ``},
		{`{"a": 1`, ``},
		{`{"a": 1 "b": ""}`, ``},
		{``, ``},
		{`[]`, ``},
	} {
		got, ok := decodeABC(tc.in)
		ref, err := strictABC(tc.in)
		if ok != (err == nil) {
			t.Errorf("%q: scanner accepted %t, encoding/json %v", tc.in, ok, err)
			continue
		}
		if ok != (tc.want != "") {
			t.Errorf("%q: accepted %t, want %t", tc.in, ok, tc.want != "")
			continue
		}
		if !ok {
			continue
		}
		if a, b := fmt.Sprintf("%+v %t %t", got, got.C == nil, got.D == nil), fmt.Sprintf("%+v %t %t", ref, ref.C == nil, ref.D == nil); a != b {
			t.Errorf("%q: scanner read %s, encoding/json %s", tc.in, a, b)
		}
		if s := fmt.Sprintf("%+v", got); s != tc.want {
			t.Errorf("%q: read %s, want %s", tc.in, s, tc.want)
		}
	}
}

// TestSkip: Skip reads any one JSON value that encoding/json accepts,
// nesting up to encoding/json's limit, and declines the rest.
func TestSkip(t *testing.T) {
	deep := func(n int) string { return strings.Repeat("[", n) + strings.Repeat("]", n) }
	for _, in := range []string{
		`0`, `-0`, `-1.5e+3`, `2E-7`, `0.25`, `true`, `false`, `null`, `"a\u00e9\n"`,
		`{}`, `[]`, `{"x": [1, {"y": null}], "": "z"}`, deep(maxDepth), deep(maxDepth + 1),
		`01`, `1.`, `.5`, `1e`, `-`, `+1`, `tru`, `nan`, `[1,]`, `{"x"}`, `{1: 2}`, `"\q"`, `[`, `}`, ``,
	} {
		s := New([]byte(in))
		s.Skip()
		var v any
		want := json.Unmarshal([]byte(in), &v) == nil
		if got := s.End(); got != want {
			t.Errorf("%.40q: Skip accepted %t, encoding/json %t", in, got, want)
		}
	}
}
