package ring

import "math/bits"

// MersennePrime61 is 2^61 - 1, the prime modulus used by the fast HoMAC
// path. It is large enough for the paper's "reasonable 64-bit p" discussion
// while keeping mulmod branch-free on 64-bit words.
const MersennePrime61 uint64 = (1 << 61) - 1

// Fp is the prime field Z_p for an arbitrary 64-bit prime p.
type Fp struct {
	P uint64
}

// NewFp returns arithmetic mod p. p must be an odd prime > 2; primality is
// the caller's contract (the HoMAC package only constructs it with known
// primes), but trivially-wrong moduli are rejected.
func NewFp(p uint64) Fp {
	if p < 3 || p&1 == 0 {
		panic("ring: field modulus must be an odd prime")
	}
	return Fp{P: p}
}

// Reduce maps x into [0, p).
func (f Fp) Reduce(x uint64) uint64 { return x % f.P }

// Add returns x + y mod p. Inputs must already be reduced.
func (f Fp) Add(x, y uint64) uint64 {
	s, carry := bits.Add64(x, y, 0)
	if carry == 1 || s >= f.P {
		s -= f.P
	}
	return s
}

// Sub returns x - y mod p. Inputs must already be reduced.
func (f Fp) Sub(x, y uint64) uint64 {
	d, borrow := bits.Sub64(x, y, 0)
	if borrow == 1 {
		d += f.P
	}
	return d
}

// Neg returns -x mod p.
func (f Fp) Neg(x uint64) uint64 {
	if x == 0 {
		return 0
	}
	return f.P - x
}

// Mul returns x * y mod p using 128-bit intermediate arithmetic.
func (f Fp) Mul(x, y uint64) uint64 {
	hi, lo := bits.Mul64(x, y)
	_, rem := bits.Div64(hi%f.P, lo, f.P)
	return rem
}

// Pow returns base^exp mod p by square-and-multiply.
func (f Fp) Pow(base, exp uint64) uint64 {
	result := uint64(1)
	base = f.Reduce(base)
	for exp > 0 {
		if exp&1 == 1 {
			result = f.Mul(result, base)
		}
		base = f.Mul(base, base)
		exp >>= 1
	}
	return result
}

// Inv returns x^{-1} mod p via Fermat's little theorem. x must be non-zero.
func (f Fp) Inv(x uint64) uint64 {
	if f.Reduce(x) == 0 {
		panic("ring: zero has no inverse in a field")
	}
	return f.Pow(x, f.P-2)
}

// Reduce61 maps any 64-bit word into [0, 2^61−1) without branches: since
// 2^61 ≡ 1 (mod 2^61−1), folding the top three bits onto the low 61 leaves
// a value below 2^61 + 7, and one masked subtraction finishes the job.
// It equals NewFp(MersennePrime61).Reduce(x) for every x.
func Reduce61(x uint64) uint64 {
	r := (x & MersennePrime61) + x>>61
	d, borrow := bits.Sub64(r, MersennePrime61, 0)
	return d + MersennePrime61&-borrow
}

// Mul61 returns x·y mod 2^61−1 without branches or a 128-bit division.
// x·y must be below 2^124, which holds when y is reduced (below 2^61) and
// x is below 2^63: the low 61 and the high bits of the product then add
// (2^61 ≡ 1) to a value Reduce61 finishes. Words from the network, up to
// 2^64−1, must be reduced first; Fp.Mul accepts them as they are.
func Mul61(x, y uint64) uint64 {
	hi, lo := bits.Mul64(x, y)
	return Reduce61(lo&MersennePrime61 + (hi<<3 | lo>>61))
}
