// Package homac implements the homomorphic message authentication codes of
// §5.5 (Catalano–Fiore style), which add result verification to HEAR's
// malleable-by-design ciphertexts. Each rank tags every ciphertext element,
//
//	σ_i[j] = (s_i[j] − c_i[j]) / Z  mod p            (naive form)
//	σ_i[j] = (s_i[j] − s_{i+1}[j] − c_i[j]) / Z mod p  (canceling form)
//
// where s_i[j] is a pseudorandom per-ciphertext key derived from the same
// telescoping key schedule as the encryption noise, Z is the communicator's
// secret verification key, and p a prime of λ bits. The network sums the
// (c, σ) pairs; after reduction the ranks check
//
//	Σ_i s_i[j]  ==  c_t[j] + σ_t[j]·Z  mod p
//
// which with the canceling form needs only s_0[j] — Θ(1), like decryption.
//
// Three deliberate engineering notes, all recorded in DESIGN.md:
//
//   - The keys s_i[j], j = 0, 1, … are consecutive words of one PRF
//     stream, so one kernel streams them 64 bytes at a time through
//     prf.BlockSource (the fused cipher kernels' keystream path) and
//     reduces them with branch-free Mersenne-61 arithmetic, instead of
//     making one PRF point query per key. It reads and writes
//     little-endian byte lanes in place, at any element offset
//     (TagAt/VerifyAt), so a sealer tags each ciphertext tile right after
//     encrypting it.
//   - The data lane sums ciphertexts mod 2^64 while the MAC works mod p,
//     so the true Σc may exceed the data lane's wrapped c_t by k·2^64 for
//     some k < P. Verify searches k ∈ [0, P); an INC device cannot exploit
//     this because it would still need a forged (c, σ) pair consistent
//     for *some* k, which requires Z.
//   - The tag doubles the per-element traffic (64-bit p ⇒ the >200%
//     inflation the paper quotes); Overhead reports it.
package homac

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sync"

	"hear/internal/keys"
	"hear/internal/prf"
	"hear/internal/ring"
)

// macDomain separates the MAC key stream from the encryption noise stream
// that shares the PRF: s_i[j] = F_{k_e}(k_s_i + k_c + macDomain, j).
const macDomain uint64 = 0x9E3779B97F4A7C15

// Vector tags and verifies vectors of 64-bit ciphertext lanes.
type Vector struct {
	f     ring.Fp
	m61   bool // p = 2^61−1: branch-free Mersenne arithmetic
	z     uint64
	zInv  uint64
	pow64 uint64 // 2^64 mod p, one data-lane wrap
}

// New builds a verifier over Z_p with verification key z. p must be an odd
// prime (the fast path uses the 61-bit Mersenne prime ring.MersennePrime61);
// z must be a non-zero residue.
func New(p, z uint64) (*Vector, error) {
	if p < 3 || p&1 == 0 {
		return nil, fmt.Errorf("homac: modulus %d is not an odd prime", p)
	}
	f := ring.NewFp(p)
	z = f.Reduce(z)
	if z == 0 {
		return nil, fmt.Errorf("homac: verification key Z must be non-zero mod p")
	}
	half := f.Reduce(1 << 63)
	return &Vector{f: f, m61: p == ring.MersennePrime61, z: z, zInv: f.Inv(z), pow64: f.Add(half, half)}, nil
}

// tileElems is the kernel's working tile: 128 elements, one BlockSource
// staging buffer (1 KiB) of keys per stream. Tiles keep the arithmetic in
// long, call-free loops; the key, word and tag tiles (3 KiB) stay in L1
// next to the lane windows they read and write.
const tileElems = 128

type tile = [tileElems]uint64

// Field arithmetic of the kernel, one tile at a time. Under the Mersenne
// prime every step is branch-free: words fold lazily (fold61, a value
// congruent to x below 2^61+8) and ring.Reduce61 runs once per combined
// result. Any other prime takes exact ring.Fp arithmetic. A combined key
// is below 2^62: it is reduced unless it came from a single stream.

func fold61(x uint64) uint64 { return x&ring.MersennePrime61 + x>>61 }

// keyTile combines the next m stream words of src into key: key = w for
// the first stream, otherwise key − w (neg) or key + w, mod p.
func (v *Vector) keyTile(key *tile, src *prf.BlockSource, m int, first, neg bool) {
	const p = ring.MersennePrime61
	for b := 0; b < m; b += prf.BlockBytes / 8 {
		blk := src.Next()
		ks := (*[prf.BlockBytes / 8]uint64)(key[b:])
		switch {
		case !v.m61:
			for e := range ks {
				x := v.f.Reduce(binary.LittleEndian.Uint64(blk[8*e:]))
				if first {
					ks[e] = x
				} else if neg {
					ks[e] = v.f.Sub(ks[e], x)
				} else {
					ks[e] = v.f.Add(ks[e], x)
				}
			}
		case first:
			for e := range ks {
				ks[e] = fold61(binary.LittleEndian.Uint64(blk[8*e:]))
			}
		case neg:
			for e := range ks {
				ks[e] = ring.Reduce61(ks[e] + 2*p - fold61(binary.LittleEndian.Uint64(blk[8*e:])))
			}
		default:
			for e := range ks {
				ks[e] = ring.Reduce61(ks[e] + fold61(binary.LittleEndian.Uint64(blk[8*e:])))
			}
		}
	}
}

// tagTile replaces the m raw ciphertext words in c by their tags
// σ = (s − c)/Z.
func (v *Vector) tagTile(c, s *tile, m int) {
	const p = ring.MersennePrime61
	if !v.m61 {
		for e := range m {
			c[e] = v.f.Mul(v.f.Sub(s[e], v.f.Reduce(c[e])), v.zInv)
		}
		return
	}
	for e := range m {
		c[e] = ring.Mul61(s[e]+2*p-fold61(c[e]), v.zInv) // < 2^63 · 2^61
	}
}

// residualTile replaces the m raw ciphertext words in c by the residuals
// s − (c + σ·Z) mod p. Words from the network may be unreduced, so σ
// folds before the multiply.
func (v *Vector) residualTile(c, s, sigma *tile, m int) {
	const p = ring.MersennePrime61
	if !v.m61 {
		for e := range m {
			c[e] = v.f.Sub(s[e], v.f.Add(v.f.Reduce(c[e]), v.f.Mul(v.f.Reduce(sigma[e]), v.z)))
		}
		return
	}
	for e := range m {
		c[e] = ring.Reduce61(s[e] + 3*p - fold61(c[e]) - ring.Mul61(fold61(sigma[e]), v.z))
	}
}

// firstBad returns the first of the m residuals d that is not k·2^64 mod
// p for any k ∈ [0, wraps], or -1: the data lane sums mod 2^64, so it may
// trail the true Σc by up to wraps wraps. Under 2^61−1, 2^64 ≡ 8, so for
// wraps below 2^58 the candidates 0, 8, …, 8·wraps are distinct residues
// and the test is arithmetic.
func (v *Vector) firstBad(d *tile, m, wraps int) int {
	switch {
	case wraps < 0:
		if m > 0 {
			return 0
		}
	case v.m61 && uint64(wraps) < 1<<58:
		for e, x := range d[:m] {
			if x&7 != 0 || x>>3 > uint64(wraps) {
				return e
			}
		}
	default:
		for e, x := range d[:m] {
			acc, ok := uint64(0), false
			for k := 0; k <= wraps && !ok; k++ {
				ok = x == acc
				acc = v.f.Add(acc, v.pow64)
			}
			if !ok {
				return e
			}
		}
	}
	return -1
}

// lane is the kernel's view of one 64-bit lane: little-endian bytes (the
// wire and sealer form) or words (the []uint64 API).
type lane struct {
	b []byte
	w []uint64
}

// load reads elements [j, j+m) into dst.
func (l lane) load(dst *tile, j, m int) {
	if l.w != nil {
		copy(dst[:m], l.w[j:j+m])
		return
	}
	b := l.b[8*j : 8*(j+m)]
	for e := range dst[:m] {
		dst[e] = binary.LittleEndian.Uint64(b[8*e:])
	}
}

// store writes src into elements [j, j+m).
func (l lane) store(src *tile, j, m int) {
	if l.w != nil {
		copy(l.w[j:j+m], src[:m])
		return
	}
	b := l.b[8*j : 8*(j+m)]
	for e, x := range src[:m] {
		binary.LittleEndian.PutUint64(b[8*e:], x)
	}
}

// kernel is the pooled state of one kernel call: the MAC key streams whose
// signed sum is the per-element key (0 with no streams). The first stream
// is added, later ones added or subtracted. Streams are pooled rather than
// stack-allocated for the reason core's noise streams are: a BlockSource
// hands interior pointers of its staging buffer to interface calls, so it
// escapes.
type kernel struct {
	src       []prf.BlockSource
	neg       []bool
	key, c, t tile
}

var kernelPool = sync.Pool{New: func() any { return new(kernel) }}

// openKernel takes a pooled kernel with no streams.
func openKernel() *kernel { return kernelPool.Get().(*kernel) }

// stream adds the MAC key stream of nonce to k, positioned at element off
// and sized for n elements. The noise prefetcher never caches MAC streams,
// so a caching PRF wrapper is bypassed for its live backend.
func (k *kernel) stream(enc prf.PRF, nonce uint64, neg bool, off, n int) {
	if sc, ok := enc.(prf.SpanCache); ok {
		enc = sc.Generator()
	}
	if len(k.src) < cap(k.src) {
		k.src = k.src[:len(k.src)+1]
	} else {
		k.src = append(k.src, prf.BlockSource{})
	}
	k.src[len(k.src)-1].Init(enc, nonce+macDomain, uint64(off)*8, n*8)
	k.neg = append(k.neg, neg)
}

// close wipes the streams and key tile (they hold key material) and
// returns k to the pool.
func (k *kernel) close() {
	clear(k.src)
	k.key = tile{}
	k.src, k.neg = k.src[:0], k.neg[:0]
	kernelPool.Put(k)
}

// run is the one HoMAC kernel body. Tile by tile it forms the combined
// key s[j] of k's streams (a pooled kernel's key tile starts zeroed, so
// with no streams s is 0) and then either writes the canceling tag
// σ[j] = (s[j] − c[j])/Z (tag) or checks c[j] + σ[j]·Z ≡ s[j] + k·2^64
// for some k ≤ wraps. It closes k and returns the first failing element
// index, or -1.
func (v *Vector) run(k *kernel, c, t lane, n int, tag bool, wraps int) int {
	defer k.close()
	for j := 0; j < n; j += tileElems {
		m := min(tileElems, n-j)
		for i := range k.src {
			v.keyTile(&k.key, &k.src[i], m, i == 0, k.neg[i])
		}
		c.load(&k.c, j, m)
		if tag {
			v.tagTile(&k.c, &k.key, m)
			t.store(&k.c, j, m)
			continue
		}
		t.load(&k.t, j, m)
		v.residualTile(&k.c, &k.key, &k.t, m)
		if bad := v.firstBad(&k.c, m, wraps); bad >= 0 {
			return j + bad
		}
	}
	return -1
}

// tagStreams opens the canceling-form key streams of st: s_i − s_{i+1},
// or s_i alone on the last rank.
func tagStreams(st *keys.RankState, off, n int) *kernel {
	k := openKernel()
	k.stream(st.Enc, st.SelfNonce(), false, off, n)
	if !st.IsLast() {
		k.stream(st.Enc, st.NextNonce(), true, off, n)
	}
	return k
}

// TagAt produces the canceling-form tags of the ciphertext elements off,
// off+1, … held in cipher as little-endian 64-bit words (narrower
// datatypes zero-extend into a word before tagging), writing the tags the
// same way into tags. Sharded callers tag disjoint windows of one lane
// with their element offsets; the tags are identical to one Tag call.
func (v *Vector) TagAt(st *keys.RankState, cipher, tags []byte, off int) error {
	n := len(cipher) / 8
	if len(tags) < n*8 {
		return fmt.Errorf("homac: tag buffer %d B < %d elements", len(tags), n)
	}
	if off < 0 {
		return fmt.Errorf("homac: negative element offset %d", off)
	}
	v.run(tagStreams(st, off, n), lane{b: cipher}, lane{b: tags}, n, true, 0)
	return nil
}

// Tag produces the canceling-form tags for n ciphertext elements: TagAt
// on word lanes at offset 0.
func (v *Vector) Tag(st *keys.RankState, cipher []uint64, tags []uint64) error {
	if len(tags) < len(cipher) {
		return fmt.Errorf("homac: tag buffer %d < %d elements", len(tags), len(cipher))
	}
	n := len(cipher)
	v.run(tagStreams(st, 0, n), lane{w: cipher}, lane{w: tags}, n, true, 0)
	return nil
}

// Aggregate folds src tags into dst (the network-side σ reduction).
func (v *Vector) Aggregate(dst, src []uint64) {
	for j := range dst {
		dst[j] = v.f.Add(dst[j], v.f.Reduce(src[j]))
	}
}

// verify checks n elements against the streams of k. Elements beyond a
// short tag lane cannot verify: the first of them fails.
func (v *Vector) verify(k *kernel, c, t lane, n, tn, off, wraps int) int {
	m := min(n, tn)
	if bad := v.run(k, c, t, m, false, wraps); bad >= 0 {
		return off + bad
	}
	if m < n {
		return off + m
	}
	return -1
}

// VerifyAt checks the reduced (c_t, σ_t) pairs of elements off, off+1, …
// against s_0, reading both lanes as little-endian 64-bit words in place.
// reducedCipher is the data lane after the mod-2^64 reduction; wraps is
// the maximum number of 2^64 wraps the true sum may have accumulated (use
// the communicator size). It reports the element index (off-based) of the
// first failing element, or -1; an element the tag lane is too short to
// cover fails.
func (v *Vector) VerifyAt(st *keys.RankState, reducedCipher, tags []byte, off, wraps int) int {
	n := len(reducedCipher) / 8
	k := openKernel()
	k.stream(st.Enc, st.RootNonce(), false, off, min(n, len(tags)/8))
	return v.verify(k, lane{b: reducedCipher}, lane{b: tags}, n, len(tags)/8, off, wraps)
}

// Verify is VerifyAt on word lanes at offset 0.
func (v *Vector) Verify(st *keys.RankState, reducedCipher, tags []uint64, wraps int) int {
	n := len(reducedCipher)
	k := openKernel()
	k.stream(st.Enc, st.RootNonce(), false, 0, min(n, len(tags)))
	return v.verify(k, lane{w: reducedCipher}, lane{w: tags}, n, len(tags), 0, wraps)
}

// subsetStreams opens the key streams of a survivor subset: the canceling
// tag keys telescope per missing run [a,b] just like the encryption noise,
// so the expected key sum over the survivors is
//
//	Σ_{i∈S} Δs_i[j]  =  s_0[j] − Σ_{runs} (s_a[j] − s_{b+1}[j])
//
// (the s_{b+1} term vanishes when the run reaches rank P−1). Deriving the
// run-boundary keys needs the shared-group key policy (st.RankNonce).
func subsetStreams(st *keys.RankState, missing []int, off, n int) (*kernel, error) {
	m := slices.Clone(missing)
	slices.Sort(m)
	for i := 1; i < len(m); i++ {
		if m[i] == m[i-1] {
			return nil, fmt.Errorf("homac: subset verify: duplicate missing rank %d", m[i])
		}
	}
	k := openKernel()
	k.stream(st.Enc, st.RootNonce(), false, off, n)
	for i := 0; i < len(m); {
		a := m[i]
		b := a
		for i++; i < len(m) && m[i] == b+1; i++ {
			b = m[i]
		}
		pos, err := st.RankNonce(a)
		if err != nil {
			k.close()
			return nil, fmt.Errorf("homac: subset verify: %w", err)
		}
		k.stream(st.Enc, pos, true, off, n)
		if b < st.Size-1 {
			neg, err := st.RankNonce(b + 1)
			if err != nil {
				k.close()
				return nil, fmt.Errorf("homac: subset verify: %w", err)
			}
			k.stream(st.Enc, neg, false, off, n)
		}
	}
	return k, nil
}

// VerifySubsetAt checks a degraded round's reduced (c_t, σ_t) byte lanes,
// where only the survivor subset contributed (see subsetStreams); states
// generated without the shared-group key policy return an error rather
// than a bogus verdict. missing lists the absent ranks; wraps bounds the
// data-lane 2^64 wraps (use the survivor count). Per-element work is
// O(runs). Reports the first failing element index (off-based), or -1.
func (v *Vector) VerifySubsetAt(st *keys.RankState, missing []int, reducedCipher, tags []byte, off, wraps int) (int, error) {
	n := len(reducedCipher) / 8
	k, err := subsetStreams(st, missing, off, min(n, len(tags)/8))
	if err != nil {
		return 0, err
	}
	return v.verify(k, lane{b: reducedCipher}, lane{b: tags}, n, len(tags)/8, off, wraps), nil
}

// VerifySubset is VerifySubsetAt on word lanes at offset 0.
func (v *Vector) VerifySubset(st *keys.RankState, missing []int, reducedCipher, tags []uint64, wraps int) (int, error) {
	n := len(reducedCipher)
	k, err := subsetStreams(st, missing, 0, min(n, len(tags)))
	if err != nil {
		return 0, err
	}
	return v.verify(k, lane{w: reducedCipher}, lane{w: tags}, n, len(tags), 0, wraps), nil
}

// TagNaive produces the non-canceling tags of §5.5's first equation,
// σ = (s_i − c_i)/Z mod p. Each rank's key survives into the aggregate, so
// verification must reconstruct Σ_i s_i[j] — Θ(P) per element, the same
// trade-off the naive encryption scheme has. Kept for the ablation pairing
// the paper's "can be improved by using a canceling method" remark.
func (v *Vector) TagNaive(st *keys.RankState, cipher []uint64, tags []uint64) error {
	if len(tags) < len(cipher) {
		return fmt.Errorf("homac: tag buffer %d < %d elements", len(tags), len(cipher))
	}
	n := len(cipher)
	k := openKernel()
	k.stream(st.Enc, st.SelfNonce(), false, 0, n)
	v.run(k, lane{w: cipher}, lane{w: tags}, n, true, 0)
	return nil
}

// VerifyNaive checks pairs tagged with TagNaive. allStartingKeys must hold
// every rank's starting key (the Θ(P) key knowledge the canceling form
// avoids); wraps bounds the data-lane 2^64 wraps as in Verify.
func (v *Vector) VerifyNaive(st *keys.RankState, allStartingKeys []uint64, reducedCipher, tags []uint64, wraps int) int {
	n := len(reducedCipher)
	k := openKernel()
	for _, sk := range allStartingKeys {
		k.stream(st.Enc, sk+st.Collective(), false, 0, min(n, len(tags)))
	}
	return v.verify(k, lane{w: reducedCipher}, lane{w: tags}, n, len(tags), 0, wraps)
}

// Overhead reports the per-element traffic multiplier the MAC adds for a
// dataBits-wide datatype: (dataBits + λ)/dataBits, e.g. 2.0 (i.e. +100%,
// a >200%-of-plaintext pair) for 64-bit data and a 64-bit p.
func (v *Vector) Overhead(dataBits int) float64 {
	lambda := 0
	for p := v.f.P; p > 0; p >>= 1 {
		lambda++
	}
	return float64(dataBits+lambda) / float64(dataBits)
}
