// Package ratio implements exact rational arithmetic on int64 numerators and
// denominators with explicit overflow detection.
//
// Synchronous-dataflow analysis is built on rationals: repetition vectors,
// module gains, and partition bandwidths are ratios of products of channel
// rates. The magnitudes involved are small (products of per-edge rates), so
// int64 with overflow checks is both faster and easier to audit than
// math/big; the arithmetic is property-tested against math/big in
// ratio_test.go.
//
// The zero value of Rat is the rational 0/1 and is ready to use.
package ratio

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
)

// ErrOverflow is returned (wrapped) when an operation would exceed int64
// range even after reduction to lowest terms.
var ErrOverflow = errors.New("ratio: int64 overflow")

// ErrDivZero is returned (wrapped) on division by zero or a zero denominator.
var ErrDivZero = errors.New("ratio: division by zero")

// Rat is a rational number p/q in lowest terms with q > 0.
type Rat struct {
	p int64 // numerator, carries the sign
	q int64 // denominator, always >= 1 for normalized values
}

// New returns p/q reduced to lowest terms.
func New(p, q int64) (Rat, error) {
	if q == 0 {
		return Rat{}, fmt.Errorf("%w: %d/0", ErrDivZero, p)
	}
	if p == math.MinInt64 || q == math.MinInt64 {
		// Negation of MinInt64 overflows; reject rather than special-case.
		return Rat{}, fmt.Errorf("%w: |operand| = 2^63", ErrOverflow)
	}
	if q < 0 {
		p, q = -p, -q
	}
	if p == 0 {
		return Rat{0, 1}, nil
	}
	g := gcd64(abs64(p), q)
	return Rat{p / g, q / g}, nil
}

// MustNew is New but panics on error. It is intended for constants and tests.
func MustNew(p, q int64) Rat {
	r, err := New(p, q)
	if err != nil {
		panic(err)
	}
	return r
}

// FromInt returns the rational n/1.
func FromInt(n int64) Rat { return Rat{n, 1} }

// Zero returns the rational 0.
func Zero() Rat { return Rat{0, 1} }

// One returns the rational 1.
func One() Rat { return Rat{1, 1} }

// Den returns the denominator (always >= 1 for values built by this package).
func (r Rat) Den() int64 {
	if r.q == 0 {
		return 1 // zero value Rat{} means 0/1
	}
	return r.q
}

// IsInt reports whether r is an integer.
func (r Rat) IsInt() bool { return r.Den() == 1 }

// Sign returns -1, 0, or +1 according to the sign of r.
func (r Rat) Sign() int {
	switch {
	case r.p < 0:
		return -1
	case r.p > 0:
		return 1
	default:
		return 0
	}
}

// Cmp compares r and s, returning -1, 0, or +1.
func (r Rat) Cmp(s Rat) int {
	// Compare p1/q1 vs p2/q2 via p1*q2 vs p2*q1 using 128-bit style split to
	// avoid overflow: compute both products in big-ish space by promoting to
	// float only as a last resort. Cross products of int64 values fit in
	// math/bits 128-bit multiply, but keeping this dependency-free and
	// branch-simple: use checked multiplication and fall back to exact
	// big-style comparison by long division when it overflows.
	a, aok := mul64(r.p, s.Den())
	b, bok := mul64(s.p, r.Den())
	if aok && bok {
		switch {
		case a < b:
			return -1
		case a > b:
			return 1
		default:
			return 0
		}
	}
	return cmpSlow(r, s)
}

// cmpSlow compares via continued-fraction style reduction, never overflowing.
func cmpSlow(r, s Rat) int {
	// Handle signs first.
	rs, ss := r.Sign(), s.Sign()
	if rs != ss {
		if rs < ss {
			return -1
		}
		return 1
	}
	if rs == 0 {
		return 0
	}
	neg := rs < 0
	a, b := abs64(r.p), r.Den()
	c, d := abs64(s.p), s.Den()
	// Compare a/b vs c/d by Euclidean descent on integer parts.
	for {
		ia, ic := a/b, c/d
		if ia != ic {
			res := 1
			if ia < ic {
				res = -1
			}
			if neg {
				res = -res
			}
			return res
		}
		ra, rc := a%b, c%d
		if ra == 0 && rc == 0 {
			return 0
		}
		if ra == 0 {
			if neg {
				return 1
			}
			return -1
		}
		if rc == 0 {
			if neg {
				return -1
			}
			return 1
		}
		// a/b vs c/d with equal integer parts: compare ra/b vs rc/d, i.e.
		// flip to b/ra vs d/rc with reversed order.
		a, b, c, d = d, rc, b, ra
	}
}

// Add returns r + s.
func (r Rat) Add(s Rat) (Rat, error) {
	// p1/q1 + p2/q2 = (p1*(L/q1) + p2*(L/q2)) / L with L = lcm(q1,q2).
	q1, q2 := r.Den(), s.Den()
	g := gcd64(q1, q2)
	l1 := q2 / g // multiplier for r's numerator
	l2 := q1 / g // multiplier for s's numerator
	a, ok1 := mul64(r.p, l1)
	b, ok2 := mul64(s.p, l2)
	if !ok1 || !ok2 {
		return Rat{}, fmt.Errorf("%w: add %v + %v", ErrOverflow, r, s)
	}
	num, ok := add64(a, b)
	if !ok {
		return Rat{}, fmt.Errorf("%w: add %v + %v", ErrOverflow, r, s)
	}
	den, ok := mul64(q1, l1)
	if !ok {
		return Rat{}, fmt.Errorf("%w: add %v + %v", ErrOverflow, r, s)
	}
	return New(num, den)
}

// Mul returns r * s.
func (r Rat) Mul(s Rat) (Rat, error) {
	// Cross-reduce before multiplying to keep intermediates small.
	a, b := r.p, r.Den()
	c, d := s.p, s.Den()
	g1 := gcd64(abs64(a), d)
	if g1 > 1 {
		a, d = a/g1, d/g1
	}
	g2 := gcd64(abs64(c), b)
	if g2 > 1 {
		c, b = c/g2, b/g2
	}
	num, ok1 := mul64(a, c)
	den, ok2 := mul64(b, d)
	if !ok1 || !ok2 {
		return Rat{}, fmt.Errorf("%w: mul %v * %v", ErrOverflow, r, s)
	}
	return New(num, den)
}

// MulInt returns r * n.
func (r Rat) MulInt(n int64) (Rat, error) { return r.Mul(FromInt(n)) }

// Int returns the integer value of r; ok is false when r is not an integer.
func (r Rat) Int() (v int64, ok bool) {
	if !r.IsInt() {
		return 0, false
	}
	return r.p, true
}

// Float returns the nearest float64 approximation of r.
func (r Rat) Float() float64 { return float64(r.p) / float64(r.Den()) }

// String renders r as "p/q", or "p" when r is an integer.
func (r Rat) String() string {
	if r.IsInt() {
		return fmt.Sprintf("%d", r.p)
	}
	return fmt.Sprintf("%d/%d", r.p, r.q)
}

// LCM64 returns lcm(a, b) for positive a, b, with overflow detection.
func LCM64(a, b int64) (int64, error) {
	if a <= 0 || b <= 0 {
		return 0, fmt.Errorf("ratio: LCM64 requires positive operands, got %d, %d", a, b)
	}
	g := gcd64(a, b)
	v, ok := mul64(a/g, b)
	if !ok {
		return 0, fmt.Errorf("%w: lcm(%d,%d)", ErrOverflow, a, b)
	}
	return v, nil
}

// GCD64 returns gcd(|a|, |b|); gcd(0,0) = 0.
func GCD64(a, b int64) int64 { return gcd64(abs64(a), abs64(b)) }

func gcd64(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	if a == 0 {
		return 1
	}
	return a
}

func abs64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}

// AddMul returns x + k·d and whether it fits in int64: the checked step
// that advances a cumulative count by k repetitions of a change d. The sum
// is formed in 128 bits, so a product that overflows on its own but is
// brought back into range by x still counts as fitting.
func AddMul(x, k, d int64) (int64, bool) {
	hi, lo := bits.Mul64(uabs64(k), uabs64(d))
	if (k < 0) != (d < 0) { // two's-complement negate the 128-bit product
		var borrow uint64
		lo, borrow = bits.Sub64(0, lo, 0)
		hi, _ = bits.Sub64(0, hi, borrow)
	}
	var c uint64
	lo, c = bits.Add64(lo, uint64(x), 0)
	hi, _ = bits.Add64(hi, uint64(x>>63), c) // x sign-extended
	if r := int64(lo); hi == uint64(r>>63) {
		return r, true
	}
	return 0, false
}

// uabs64 returns |v| as a uint64; |MinInt64| is representable there.
func uabs64(v int64) uint64 {
	if v < 0 {
		return -uint64(v)
	}
	return uint64(v)
}

// add64 returns a+b and whether it did not overflow.
func add64(a, b int64) (int64, bool) {
	s := a + b
	if (a > 0 && b > 0 && s < 0) || (a < 0 && b < 0 && s >= 0) {
		return 0, false
	}
	return s, true
}

// mul64 returns a*b and whether it did not overflow.
func mul64(a, b int64) (int64, bool) {
	if a == 0 || b == 0 {
		return 0, true
	}
	p := a * b
	if p/b != a {
		return 0, false
	}
	if a == math.MinInt64 || b == math.MinInt64 {
		return 0, false
	}
	return p, true
}
