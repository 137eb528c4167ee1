package homac

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"hear/internal/core"
	"hear/internal/keys"
	"hear/internal/prf"
	"hear/internal/ring"
)

// oracle is the point-query HoMAC the streaming kernel replaced: one PRF
// word query per key and generic ring.Fp arithmetic. It is kept here as
// the reference the kernel must match bit for bit.
type oracle struct {
	f       ring.Fp
	z, zInv uint64
}

func newOracle(p, z uint64) oracle {
	f := ring.NewFp(p)
	z = f.Reduce(z)
	return oracle{f: f, z: z, zInv: f.Inv(z)}
}

func (o oracle) keyAt(p prf.PRF, nonce uint64, j int) uint64 {
	return o.f.Reduce(p.Uint64(nonce+macDomain, uint64(j)))
}

func (o oracle) tag(st *keys.RankState, cipher []uint64, off int) []uint64 {
	tags := make([]uint64, len(cipher))
	for j, c := range cipher {
		s := o.keyAt(st.Enc, st.SelfNonce(), off+j)
		if !st.IsLast() {
			s = o.f.Sub(s, o.keyAt(st.Enc, st.NextNonce(), off+j))
		}
		tags[j] = o.f.Mul(o.f.Sub(s, o.f.Reduce(c)), o.zInv)
	}
	return tags
}

func (o oracle) tagNaive(st *keys.RankState, cipher []uint64) []uint64 {
	tags := make([]uint64, len(cipher))
	for j, c := range cipher {
		tags[j] = o.f.Mul(o.f.Sub(o.keyAt(st.Enc, st.SelfNonce(), j), o.f.Reduce(c)), o.zInv)
	}
	return tags
}

// check is the per-element verdict: c + σ·Z + k·2^64 == want for some
// k ≤ wraps.
func (o oracle) check(want, c, sigma uint64, wraps int) bool {
	pow64 := o.f.Reduce(1 << 63)
	pow64 = o.f.Add(pow64, pow64)
	rhs := o.f.Add(o.f.Reduce(c), o.f.Mul(sigma, o.z))
	for k := 0; k <= wraps; k++ {
		if rhs == want {
			return true
		}
		rhs = o.f.Add(rhs, pow64)
	}
	return false
}

// verifyWith checks every element against want(j) and reports the first
// failure (off-based); elements the tag lane cannot cover fail.
func (o oracle) verifyWith(want func(j int) uint64, c, tags []uint64, off, wraps int) int {
	for j := range c {
		if j >= len(tags) || !o.check(want(off+j), c[j], tags[j], wraps) {
			return off + j
		}
	}
	return -1
}

func (o oracle) verify(st *keys.RankState, c, tags []uint64, off, wraps int) int {
	return o.verifyWith(func(j int) uint64 { return o.keyAt(st.Enc, st.RootNonce(), j) }, c, tags, off, wraps)
}

func (o oracle) verifySubset(st *keys.RankState, missing []int, c, tags []uint64, wraps int) int {
	m := slices.Clone(missing)
	slices.Sort(m)
	var pos, neg []uint64
	for i := 0; i < len(m); {
		a, b := m[i], m[i]
		for i++; i < len(m) && m[i] == b+1; i++ {
			b = m[i]
		}
		n, _ := st.RankNonce(a)
		pos = append(pos, n)
		if b < st.Size-1 {
			n, _ := st.RankNonce(b + 1)
			neg = append(neg, n)
		}
	}
	return o.verifyWith(func(j int) uint64 {
		want := o.keyAt(st.Enc, st.RootNonce(), j)
		for _, n := range pos {
			want = o.f.Sub(want, o.keyAt(st.Enc, n, j))
		}
		for _, n := range neg {
			want = o.f.Add(want, o.keyAt(st.Enc, n, j))
		}
		return want
	}, c, tags, 0, wraps)
}

func (o oracle) verifyNaive(st *keys.RankState, starting, c, tags []uint64, wraps int) int {
	return o.verifyWith(func(j int) uint64 {
		var sum uint64
		for _, k := range starting {
			sum = o.f.Add(sum, o.keyAt(st.Enc, k+st.Collective(), j))
		}
		return sum
	}, c, tags, 0, wraps)
}

var identityBackends = []string{prf.BackendAESFast, prf.BackendAESScalar, prf.BackendChaCha20, prf.BackendSHA1}

// identityPrimes are the Mersenne fast path, the largest 64-bit prime
// (carries in every add) and a small prime (most words need reducing).
var identityPrimes = []uint64{ring.MersennePrime61, 18446744073709551557, 1000003}

func statesFor(t testing.TB, backend string, p int, shared bool) []*keys.RankState {
	t.Helper()
	states, err := keys.Generate(p, keys.Config{Backend: backend, Rand: &seqReader{next: 9}, SharedGroup: shared})
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range states {
		st.Advance()
		st.Advance()
	}
	return states
}

func randLane(rng *rand.Rand, n int) []uint64 {
	c := make([]uint64, n)
	for j := range c {
		c[j] = rng.Uint64()
	}
	return c
}

func toBytes(w []uint64) []byte {
	b := make([]byte, 8*len(w))
	for j, x := range w {
		binary.LittleEndian.PutUint64(b[8*j:], x)
	}
	return b
}

func toWords(b []byte) []uint64 {
	w := make([]uint64, len(b)/8)
	for j := range w {
		w[j] = binary.LittleEndian.Uint64(b[8*j:])
	}
	return w
}

// TestStreamingMatchesOracle: streaming tags equal the point-query
// tags, and streaming verdicts the point-query verdicts (clean,
// tampered, and with unreduced tag words), on every backend, group size,
// lane length and prime.
func TestStreamingMatchesOracle(t *testing.T) {
	sizes := []int{0, 1, 7, 8, 9, 63, 64, 65, 64 << 10}
	for _, backend := range identityBackends {
		for _, p := range []int{1, 2, 3, 5, 8} {
			for _, n := range sizes {
				primes := identityPrimes
				if n == 64<<10 {
					// The long lane exercises refills and CTR streaming;
					// one prime and the two stream shapes (a lone last
					// rank, a canceling pair) are enough there.
					if p > 2 {
						continue
					}
					primes = primes[:1]
				}
				for _, q := range primes {
					name := fmt.Sprintf("%s/P=%d/n=%d/p=%d", backend, p, n, q)
					identityCase(t, name, backend, p, n, q)
				}
			}
		}
	}
}

func identityCase(t *testing.T, name, backend string, p, n int, q uint64) {
	v, err := New(q, 0xC0FFEE)
	if err != nil {
		t.Fatal(err)
	}
	o := newOracle(q, 0xC0FFEE)
	states := statesFor(t, backend, p, false)
	rng := rand.New(rand.NewSource(int64(p*7919 + n)))
	cT := make([]uint64, n)
	sT := make([]uint64, n)
	for _, st := range states {
		c := randLane(rng, n)
		tags := make([]uint64, n)
		if err := v.Tag(st, c, tags); err != nil {
			t.Fatal(err)
		}
		want := o.tag(st, c, 0)
		if !slices.Equal(tags, want) {
			t.Fatalf("%s rank %d: streaming tags differ from the point-query oracle", name, st.Rank)
		}
		tb := make([]byte, 8*n)
		if err := v.TagAt(st, toBytes(c), tb, 0); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(toWords(tb), want) {
			t.Fatalf("%s rank %d: byte-lane tags differ from the oracle", name, st.Rank)
		}
		for j := range cT {
			cT[j] += c[j]
		}
		v.Aggregate(sT, tags)
	}
	st := states[0]
	verdicts := func(label string, c, tags []uint64) {
		t.Helper()
		want := o.verify(st, c, tags, 0, p)
		if got := v.Verify(st, c, tags, p); got != want {
			t.Fatalf("%s %s: Verify = %d, oracle %d", name, label, got, want)
		}
		if got := v.VerifyAt(st, toBytes(c), toBytes(tags), 0, p); got != want {
			t.Fatalf("%s %s: VerifyAt = %d, oracle %d", name, label, got, want)
		}
	}
	verdicts("clean", cT, sT)
	if v.Verify(st, cT, sT, p) != -1 {
		t.Fatalf("%s: honest aggregate rejected", name)
	}
	if n == 0 {
		return
	}
	j := n / 2
	tampered := slices.Clone(cT)
	tampered[j] ^= 1 << 40
	verdicts("data-tampered", tampered, sT)
	// A tag word ≥ p is the same residue as its reduction.
	if sT[j] <= ^uint64(0)-q {
		unreduced := slices.Clone(sT)
		unreduced[j] += q
		verdicts("unreduced-tag", cT, unreduced)
	}
	high := slices.Clone(sT)
	high[j] = ^uint64(0)
	verdicts("max-tag", cT, high)
	verdicts("short-tags", cT, sT[:j])
	if got, want := v.Verify(st, cT, sT, 0), o.verify(st, cT, sT, 0, 0); got != want {
		t.Fatalf("%s wraps=0: Verify = %d, oracle %d", name, got, want)
	}
	if got, want := v.Verify(st, cT, sT, -1), o.verify(st, cT, sT, 0, -1); got != want {
		t.Fatalf("%s wraps=-1: Verify = %d, oracle %d", name, got, want)
	}
}

// TestTagAtVerifyAtSplits: tagging and verifying a lane in windows at
// unaligned element offsets equals one whole-lane call.
func TestTagAtVerifyAtSplits(t *testing.T) {
	const n = 1000
	for _, backend := range identityBackends {
		v, err := New(ring.MersennePrime61, 77)
		if err != nil {
			t.Fatal(err)
		}
		o := newOracle(ring.MersennePrime61, 77)
		states := statesFor(t, backend, 3, false)
		rng := rand.New(rand.NewSource(3))
		cT := make([]byte, 8*n)
		sT := make([]uint64, n)
		for _, st := range states {
			c := randLane(rng, n)
			whole := o.tag(st, c, 0)
			cb := toBytes(c)
			tb := make([]byte, 8*n)
			cuts := []int{0, 1, 3, 8, 17, 100, 129, 511, 999, n}
			for i := 0; i+1 < len(cuts); i++ {
				a, b := cuts[i], cuts[i+1]
				if err := v.TagAt(st, cb[8*a:8*b], tb[8*a:8*b], a); err != nil {
					t.Fatal(err)
				}
				if got, want := toWords(tb[8*a:8*b]), o.tag(st, c[a:b], a); !slices.Equal(got, want) {
					t.Fatalf("%s rank %d: window [%d,%d) tags differ from the oracle", backend, st.Rank, a, b)
				}
			}
			if !slices.Equal(toWords(tb), whole) {
				t.Fatalf("%s rank %d: windowed tags differ from whole-lane tags", backend, st.Rank)
			}
			for j := 0; j < n; j++ {
				binary.LittleEndian.PutUint64(cT[8*j:], binary.LittleEndian.Uint64(cT[8*j:])+c[j])
			}
			v.Aggregate(sT, whole)
		}
		tb := toBytes(sT)
		binary.LittleEndian.PutUint64(cT[8*700:], binary.LittleEndian.Uint64(cT[8*700:])+1)
		for _, cut := range [][2]int{{0, 13}, {13, 650}, {650, 701}, {701, n}} {
			a, b := cut[0], cut[1]
			got := v.VerifyAt(states[0], cT[8*a:8*b], tb[8*a:8*b], a, 3)
			want := o.verify(states[0], toWords(cT[8*a:8*b]), sT[a:b], a, 3)
			if got != want {
				t.Fatalf("%s: VerifyAt window [%d,%d) = %d, oracle %d", backend, a, b, got, want)
			}
			if (got == 700) != (a <= 700 && 700 < b) {
				t.Fatalf("%s: window [%d,%d) verdict %d misplaces the tampered element", backend, a, b, got)
			}
		}
	}
}

// TestVerifySubsetMatchesOracle: survivor-subset verdicts with several
// missing runs equal the point-query oracle, clean and tampered.
func TestVerifySubsetMatchesOracle(t *testing.T) {
	const p, n = 8, 130
	missingSets := [][]int{{0}, {7}, {1, 2}, {0, 3, 4, 7}, {6, 2, 5}, {1, 3, 5}}
	for _, backend := range identityBackends {
		v, err := New(ring.MersennePrime61, 0xBEEF)
		if err != nil {
			t.Fatal(err)
		}
		o := newOracle(ring.MersennePrime61, 0xBEEF)
		states := statesFor(t, backend, p, true)
		rng := rand.New(rand.NewSource(11))
		lanes := make([][]uint64, p)
		tags := make([][]uint64, p)
		for i, st := range states {
			lanes[i] = randLane(rng, n)
			tags[i] = o.tag(st, lanes[i], 0)
		}
		for _, missing := range missingSets {
			gone := make(map[int]bool)
			for _, m := range missing {
				gone[m] = true
			}
			cT := make([]uint64, n)
			sT := make([]uint64, n)
			var opener *keys.RankState
			for i := range states {
				if gone[i] {
					continue
				}
				opener = states[i]
				for j := range cT {
					cT[j] += lanes[i][j]
				}
				v.Aggregate(sT, tags[i])
			}
			wraps := p - len(missing)
			for _, tamper := range []int{-1, 0, 64, n - 1} {
				c := slices.Clone(cT)
				if tamper >= 0 {
					c[tamper] ^= 1 << 50
				}
				want := o.verifySubset(opener, missing, c, sT, wraps)
				got, err := v.VerifySubset(opener, missing, c, sT, wraps)
				if err != nil || got != want {
					t.Fatalf("%s missing=%v tamper=%d: VerifySubset = %d (%v), oracle %d", backend, missing, tamper, got, err, want)
				}
				got, err = v.VerifySubsetAt(opener, missing, toBytes(c), toBytes(sT), 0, wraps)
				if err != nil || got != want {
					t.Fatalf("%s missing=%v tamper=%d: VerifySubsetAt = %d (%v), oracle %d", backend, missing, tamper, got, err, want)
				}
				if (tamper < 0) != (got == -1) {
					t.Fatalf("%s missing=%v tamper=%d: verdict %d", backend, missing, tamper, got)
				}
			}
		}
	}
}

// TestNaiveMatchesOracle: the non-canceling pair runs through the same
// kernel and matches the point-query oracle.
func TestNaiveMatchesOracle(t *testing.T) {
	for _, backend := range identityBackends {
		for _, p := range []int{1, 3, 5} {
			v, err := New(ring.MersennePrime61, 99)
			if err != nil {
				t.Fatal(err)
			}
			o := newOracle(ring.MersennePrime61, 99)
			states := statesFor(t, backend, p, false)
			rng := rand.New(rand.NewSource(int64(p)))
			const n = 77
			cT := make([]uint64, n)
			sT := make([]uint64, n)
			starting := make([]uint64, p)
			for i, st := range states {
				starting[i] = st.SelfKey
				c := randLane(rng, n)
				tags := make([]uint64, n)
				if err := v.TagNaive(st, c, tags); err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(tags, o.tagNaive(st, c)) {
					t.Fatalf("%s P=%d rank %d: naive tags differ from the oracle", backend, p, i)
				}
				for j := range cT {
					cT[j] += c[j]
				}
				v.Aggregate(sT, tags)
			}
			for _, tamper := range []int{-1, 40} {
				c := slices.Clone(cT)
				if tamper >= 0 {
					c[tamper]++
				}
				got := v.VerifyNaive(states[0], starting, c, sT, p)
				if want := o.verifyNaive(states[0], starting, c, sT, p); got != want {
					t.Fatalf("%s P=%d tamper=%d: VerifyNaive = %d, oracle %d", backend, p, tamper, got, want)
				}
				if (tamper < 0) != (got == -1) {
					t.Fatalf("%s P=%d tamper=%d: verdict %d", backend, p, tamper, got)
				}
			}
			if got, want := v.VerifyNaive(states[0], nil, cT, sT, p), o.verifyNaive(states[0], nil, cT, sT, p); got != want {
				t.Fatalf("%s P=%d no keys: VerifyNaive = %d, oracle %d", backend, p, got, want)
			}
		}
	}
}

// TestHoMACAllocs pins the kernel's allocations at 64 Ki elements: none
// on ChaCha20, and on AES-fast no more than the fused encrypt of the
// same lane, which builds one CTR stream per key stream too.
func TestHoMACAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-mode sync.Pool drops pooled kernels by design")
	}
	const n = 64 << 10
	v, err := New(ring.MersennePrime61, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, backend := range []string{prf.BackendChaCha20, prf.BackendAESFast} {
		// A non-last rank tags with two streams; a group of one verifies
		// its own honest tags over the whole lane.
		st := statesFor(t, backend, 2, false)[0]
		solo := statesFor(t, backend, 1, false)[0]
		c := make([]uint64, n)
		tags := make([]uint64, n)
		cb := make([]byte, 8*n)
		tb := make([]byte, 8*n)
		if err := v.Tag(solo, c, tags); err != nil {
			t.Fatal(err)
		}
		if err := v.TagAt(solo, cb, tb, 0); err != nil {
			t.Fatal(err)
		}
		out, outb := make([]uint64, n), make([]byte, 8*n)
		allocs := map[string]float64{
			"Tag":      testing.AllocsPerRun(10, func() { v.Tag(st, c, out) }),
			"TagAt":    testing.AllocsPerRun(10, func() { v.TagAt(st, cb, outb, 0) }),
			"Verify":   testing.AllocsPerRun(10, func() { v.Verify(solo, c, tags, 1) }),
			"VerifyAt": testing.AllocsPerRun(10, func() { v.VerifyAt(solo, cb, tb, 0, 1) }),
		}
		limit := 0.0
		if backend == prf.BackendAESFast {
			// The fused int64-sum encrypt of a non-last rank opens two
			// CTR streams (self and canceling), like Tag.
			sum, err := core.NewIntSum(64)
			if err != nil {
				t.Fatal(err)
			}
			limit = testing.AllocsPerRun(10, func() { sum.EncryptAt(st, cb, outb, n, 0) })
		}
		if v.Verify(solo, c, tags, 1) != -1 || v.VerifyAt(solo, cb, tb, 0, 1) != -1 {
			t.Fatalf("%s: honest lane rejected, so the verify allocations were not measured over it", backend)
		}
		for name, a := range allocs {
			if a > limit {
				t.Errorf("%s/%s: %.1f allocs per 64 Ki-element call, want ≤ %.1f", backend, name, a, limit)
			}
		}
	}
}

// BenchmarkStreaming64Ki times the kernel on the gateway's lane size.
func BenchmarkStreaming64Ki(b *testing.B) {
	const n = 64 << 10
	v, err := New(ring.MersennePrime61, 5)
	if err != nil {
		b.Fatal(err)
	}
	for _, backend := range []string{prf.BackendAESFast, prf.BackendChaCha20} {
		// One rank tags with two streams (self and canceling); a group
		// of one verifies its own honest tags against one stream.
		st := statesFor(b, backend, 2, false)[0]
		solo := statesFor(b, backend, 1, false)[0]
		c := make([]byte, 8*n)
		tags := make([]byte, 8*n)
		b.Run(backend+"/TagAt", func(b *testing.B) {
			b.SetBytes(8 * n)
			for i := 0; i < b.N; i++ {
				v.TagAt(st, c, tags, 0)
			}
		})
		if err := v.TagAt(solo, c, tags, 0); err != nil {
			b.Fatal(err)
		}
		b.Run(backend+"/VerifyAt", func(b *testing.B) {
			b.SetBytes(8 * n)
			for i := 0; i < b.N; i++ {
				if bad := v.VerifyAt(solo, c, tags, 0, 1); bad >= 0 {
					b.Fatalf("honest element %d rejected", bad)
				}
			}
		})
	}
}
