package hear

import (
	"encoding/binary"
	"errors"
	"testing"

	"hear/internal/core/fold"
	"hear/internal/keys"
	"hear/internal/mpi"
	"hear/internal/ring"
)

// oracleMACDomain is the stream offset internal/homac derives MAC keys
// at. The honest seed below pins it: a wrong value makes the oracle reject
// a round the sealer accepts.
const oracleMACDomain = 0x9E3779B97F4A7C15

// oracleVerify is the point-query form of GatewaySealer.Verify: one PRF
// word per root key, generic field arithmetic, and the explicit 2^64-wrap
// search. It returns the first failing element, -1, or -2 when the tag
// lane is too short to cover the data lane.
func oracleVerify(st *keys.RankState, z uint64, wraps int, cipher, tags []byte) int {
	n := len(cipher) / 8
	if len(tags) < n*8 {
		return -2
	}
	f := ring.NewFp(HoMACPrime)
	pow64 := f.Reduce(1 << 63)
	pow64 = f.Add(pow64, pow64)
	for j := 0; j < n; j++ {
		s0 := f.Reduce(st.Enc.Uint64(st.RootNonce()+oracleMACDomain, uint64(j)))
		c := binary.LittleEndian.Uint64(cipher[8*j:])
		sigma := binary.LittleEndian.Uint64(tags[8*j:])
		rhs := f.Add(f.Reduce(c), f.Mul(sigma, z))
		ok := false
		for k := 0; k <= wraps && !ok; k++ {
			ok = rhs == s0
			rhs = f.Add(rhs, pow64)
		}
		if !ok {
			return j
		}
	}
	return -1
}

// FuzzGatewaySealerVerify feeds a sealer's Verify and Open the bytes a
// gateway could send back: lanes of any length, short or missing tag
// lanes, and tag words at or above p up to 2^64−1 (lift adds p to the
// tag words its bits select, which leaves an honest residue unchanged).
// Neither call may panic, and Verify's verdict must equal the point-query
// oracle's.
func FuzzGatewaySealerVerify(f *testing.F) {
	const P, z = 3, 0xF022
	ctxs, err := Init(mpi.NewWorld(P), Options{})
	if err != nil {
		f.Fatal(err)
	}
	verifier, err := NewVerifier(z)
	if err != nil {
		f.Fatal(err)
	}
	sealers := make([]*GatewaySealer, P)
	inputs := make([][]int64, P)
	for i := range sealers {
		sealers[i] = ctxs[i].NewGatewaySealer(verifier)
		inputs[i] = make([]int64, 37)
		for j := range inputs[i] {
			inputs[i][j] = int64(i*7919+j) - 1000
		}
	}
	var cipher, tags []byte
	for i, g := range sealers {
		c, tg, err := g.Seal(inputs[i], 0)
		if err != nil {
			f.Fatal(err)
		}
		if i == 0 {
			cipher, tags = append([]byte(nil), c...), append([]byte(nil), tg...)
			continue
		}
		fold.SumUint64(cipher, c)
		fold.SumMod61(tags, tg)
	}
	g := sealers[0]
	if oracleVerify(g.ctx.st, z, P, cipher, tags) != -1 {
		f.Fatal("oracle rejects the honest aggregate")
	}
	f.Add(cipher, tags, uint8(0))
	f.Add(cipher, tags, uint8(0xA5))
	f.Add(cipher[:8*9+3], tags[:8*9], uint8(0xFF))
	f.Add(cipher, tags[:8*20], uint8(0))
	f.Add(cipher[:8], []byte(nil), uint8(0))
	f.Add([]byte{}, []byte{}, uint8(0))
	maxTags := append([]byte(nil), tags...)
	for j := 0; j < len(maxTags); j += 8 {
		binary.LittleEndian.PutUint64(maxTags[j:], ^uint64(0))
	}
	f.Add(cipher, maxTags, uint8(0))

	f.Fuzz(func(t *testing.T, cipher, tags []byte, lift uint8) {
		tags = append([]byte(nil), tags...)
		for j := 0; j+8 <= len(tags); j += 8 {
			if lift>>(j/8%8)&1 == 1 {
				w := binary.LittleEndian.Uint64(tags[j:])
				if w <= ^uint64(0)-HoMACPrime {
					binary.LittleEndian.PutUint64(tags[j:], w+HoMACPrime)
				}
			}
		}
		want := oracleVerify(g.ctx.st, z, P, cipher, tags)
		err := g.Verify(cipher, tags)
		var vf *ErrVerificationFailed
		switch {
		case want == -1 && err != nil:
			t.Fatalf("oracle accepts, Verify: %v", err)
		case want == -2 && (err == nil || errors.As(err, &vf)):
			t.Fatalf("short tag lane: Verify = %v, want a length error", err)
		case want >= 0 && (!errors.As(err, &vf) || vf.Element != want):
			t.Fatalf("oracle fails element %d, Verify: %v", want, err)
		}
		out := make([]int64, len(cipher)/8)
		if err := g.Open(cipher, out); err != nil {
			t.Fatalf("Open: %v", err)
		}
	})
}
