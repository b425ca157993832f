package jsonscan

import (
	"encoding/json"
	"math"
	"slices"
	"testing"
)

// abc decodes {"a": int, "b": string, "c": [int]} the way the daemon's
// and the graph's decoders use a Scanner.
type abc struct {
	A int64   `json:"a"`
	B string  `json:"b"`
	C []int64 `json:"c"`
}

func decodeABC(data string) (abc, bool) {
	var v abc
	s := New([]byte(data))
	var seen uint64
	for i := 0; s.Next('{', i); i++ {
		switch s.Member([]string{"a", "b", "c"}, &seen) {
		case 0:
			v.A = s.Int()
		case 1:
			v.B = s.Text()
		case 2:
			v.C = []int64{}
			for j := 0; s.Next('[', j); j++ {
				v.C = append(v.C, s.Int())
			}
		}
	}
	return v, s.End()
}

// TestScannerSpelling: what the scanner reads it reads as encoding/json
// does, and it declines every other spelling.
func TestScannerSpelling(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want *abc // nil: declined
	}{
		{`{}`, &abc{}},
		{" \t{ \"a\" :\n-12 , \"b\":\"x y~\x7f\", \"c\": [1, 0, -0] }\r\n", &abc{A: -12, B: "x y~\x7f", C: []int64{1, 0, 0}}},
		{`{"c": [], "b": ""}`, &abc{C: []int64{}}},
		{`{"a": 9223372036854775807}`, &abc{A: math.MaxInt64}},
		{`{"a": -9223372036854775808}`, &abc{A: math.MinInt64}},
		{`{"a": 9223372036854775808}`, nil},
		{`{"a": -9223372036854775809}`, nil},
		{`{"a": 92233720368547758070}`, nil},
		{`{"a": 1.0}`, nil},
		{`{"a": 1e3}`, nil},
		{`{"a": 01}`, nil},
		{`{"a": 00}`, nil},
		{`{"a": -}`, nil},
		{`{"a": +1}`, nil},
		{`{"a": null}`, nil},
		{`{"c": null}`, nil},
		{`{"A": 1}`, nil},
		{`{"a": 1, "a": 2}`, nil},
		{`{"d": 1}`, nil},
		{`{"b": "\u0041"}`, nil},
		{`{"b": "\""}`, nil},
		{`{"b": "é"}`, nil},
		{"{\"b\": \"\x01\"}", nil},
		{`{"b": "open}`, nil},
		{`{"a": 1,}`, nil},
		{`{"c": [1,]}`, nil},
		{`{"c": [,1]}`, nil},
		{`{"a": 1} x`, nil},
		{`{"a": 1}{}`, nil},
		{`{"a" 1}`, nil},
		{`{"a": 1`, nil},
		{`{"a": 1 "b": ""}`, nil},
		{``, nil},
		{`[]`, nil},
	} {
		got, ok := decodeABC(tc.in)
		if ok != (tc.want != nil) {
			t.Errorf("%q: accepted %t, want %t", tc.in, ok, tc.want != nil)
			continue
		}
		if !ok {
			continue
		}
		if got.A != tc.want.A || got.B != tc.want.B || !slices.Equal(got.C, tc.want.C) || (got.C == nil) != (tc.want.C == nil) {
			t.Errorf("%q: read %+v, want %+v", tc.in, got, *tc.want)
		}
		var ref abc
		if err := json.Unmarshal([]byte(tc.in), &ref); err != nil || ref.A != got.A || ref.B != got.B || !slices.Equal(ref.C, got.C) {
			t.Errorf("%q: encoding/json reads %+v (%v), the scanner %+v", tc.in, ref, err, got)
		}
	}
}
