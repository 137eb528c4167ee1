package homac

import (
	"crypto/rand"
	"fmt"
	"math/big"

	"hear/internal/keys"
	"hear/internal/prf"
)

// Big is the arbitrary-λ variant of the verifier built on math/big, for
// security parameters beyond 64 bits. It exists to quantify §5.5's point
// that "the overhead is linear with the security parameter": the bench
// suite compares it against the 61-bit fast path.
type Big struct {
	p    *big.Int
	z    *big.Int
	zInv *big.Int
}

// NewBig builds a verifier with a randomly generated λ-bit prime and a
// random verification key.
func NewBig(lambda int) (*Big, error) {
	if lambda < 8 || lambda > 4096 {
		return nil, fmt.Errorf("homac: λ = %d outside [8, 4096]", lambda)
	}
	p, err := rand.Prime(rand.Reader, lambda)
	if err != nil {
		return nil, fmt.Errorf("homac: generating prime: %w", err)
	}
	z, err := rand.Int(rand.Reader, new(big.Int).Sub(p, big.NewInt(1)))
	if err != nil {
		return nil, fmt.Errorf("homac: generating Z: %w", err)
	}
	z.Add(z, big.NewInt(1)) // non-zero
	return &Big{p: p, z: z, zInv: new(big.Int).ModInverse(z, p)}, nil
}

// Lambda returns the bit length of the prime modulus.
func (b *Big) Lambda() int { return b.p.BitLen() }

// keys derives the per-ciphertext keys of elements [0, n) of stream
// nonce: ⌈λ/64⌉ PRF words per element, drawn with one keystream call.
func (b *Big) keys(pr prf.PRF, nonce uint64, n int) []*big.Int {
	words := (b.p.BitLen() + 63) / 64
	buf := make([]byte, n*words*8)
	pr.Keystream(buf, nonce+macDomain, 0)
	out := make([]*big.Int, n)
	for j := range out {
		v := new(big.Int).SetBytes(buf[j*words*8 : (j+1)*words*8])
		out[j] = v.Mod(v, b.p)
	}
	return out
}

// Tag produces canceling-form tags for the ciphertext lanes.
func (b *Big) Tag(st *keys.RankState, cipher []uint64, tags []*big.Int) error {
	if len(tags) < len(cipher) {
		return fmt.Errorf("homac: tag buffer %d < %d elements", len(tags), len(cipher))
	}
	self := b.keys(st.Enc, st.SelfNonce(), len(cipher))
	var next []*big.Int
	if !st.IsLast() {
		next = b.keys(st.Enc, st.NextNonce(), len(cipher))
	}
	for j, c := range cipher {
		s := self[j]
		if next != nil {
			s.Sub(s, next[j])
		}
		s.Sub(s, new(big.Int).SetUint64(c))
		s.Mod(s, b.p)
		tags[j] = s.Mul(s, b.zInv).Mod(s, b.p)
	}
	return nil
}

// Aggregate folds src into dst.
func (b *Big) Aggregate(dst, src []*big.Int) {
	for j := range dst {
		dst[j].Add(dst[j], src[j]).Mod(dst[j], b.p)
	}
}

// Verify checks the reduced pairs; wraps bounds the data-lane 2^64 wraps.
func (b *Big) Verify(st *keys.RankState, reducedCipher []uint64, tags []*big.Int, wraps int) int {
	root := b.keys(st.Enc, st.RootNonce(), len(reducedCipher))
	pow64 := new(big.Int).Lsh(big.NewInt(1), 64)
	pow64.Mod(pow64, b.p)
	for j := range reducedCipher {
		s0 := root[j]
		rhs := new(big.Int).SetUint64(reducedCipher[j])
		rhs.Add(rhs, new(big.Int).Mul(tags[j], b.z)).Mod(rhs, b.p)
		ok := false
		for k := 0; k <= wraps; k++ {
			if rhs.Cmp(s0) == 0 {
				ok = true
				break
			}
			rhs.Add(rhs, pow64).Mod(rhs, b.p)
		}
		if !ok {
			return j
		}
	}
	return -1
}
