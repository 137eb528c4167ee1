package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"hash"
	"testing"

	"hear/internal/keys"
	"hear/internal/prf"
)

// genStatesBackend is genStates with an explicit PRF backend.
func genStatesBackend(t testing.TB, p int, backend string) []*keys.RankState {
	t.Helper()
	states, err := keys.Generate(p, keys.Config{Rand: &seqReader{next: 1}, Backend: backend})
	if err != nil {
		t.Fatal(err)
	}
	return states
}

// fusedBackends, fusedOffs and fusedSizes span every PRF backend and the
// offsets and sizes that exercise partial head/tail blocks and
// staging-buffer refills.
var (
	fusedBackends = []string{prf.BackendAESFast, prf.BackendAESScalar, prf.BackendChaCha20, prf.BackendSHA1}
	fusedOffs     = []int{0, 1, 7, 129}
	fusedSizes    = []int{1, 3, 100, 1000}
)

// forEachFusedCase runs f for every backend, canceling and last rank of a
// 3-rank world, scheme, offset and size, with the rank's state advanced
// once and the scheme's plaintext filled.
func forEachFusedCase(t *testing.T, f func(backend string, rank int, st *keys.RankState, s Scheme, off, n int, plain []byte)) {
	for _, backend := range fusedBackends {
		states := genStatesBackend(t, 3, backend)
		starting := make([]uint64, 3)
		for i, s := range states {
			starting[i] = s.SelfKey
		}
		for _, rank := range []int{0, 2} { // canceling rank and last rank
			st := states[rank]
			st.Advance()
			for _, s := range allSchemes(t, 3, starting) {
				for _, off := range fusedOffs {
					for _, n := range fusedSizes {
						f(backend, rank, st, s, off, n, fillPlain(s, n))
					}
				}
			}
		}
	}
}

// One bulk EncryptAt/DecryptAt call must equal n single-element calls at
// off+j: the streaming kernel's block walk, partial blocks and staging
// refills must not change any element's noise.
func TestFusedMatchesPointOracle(t *testing.T) {
	forEachFusedCase(t, func(backend string, rank int, st *keys.RankState, s Scheme, off, n int, plain []byte) {
		ps, cs := s.PlainSize(), s.CipherSize()
		cipher := make([]byte, n*cs)
		if err := s.EncryptAt(st, plain, cipher, n, off); err != nil {
			t.Fatalf("%s/%s rank=%d off=%d n=%d: encrypt: %v", backend, s.Name(), rank, off, n, err)
		}
		back := make([]byte, n*ps)
		if err := s.DecryptAt(st, cipher, back, n, off); err != nil {
			t.Fatalf("%s/%s rank=%d off=%d n=%d: decrypt: %v", backend, s.Name(), rank, off, n, err)
		}
		c1, p1 := make([]byte, cs), make([]byte, ps)
		for j := 0; j < n; j++ {
			if err := s.EncryptAt(st, plain[j*ps:(j+1)*ps], c1, 1, off+j); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(c1, cipher[j*cs:(j+1)*cs]) {
				t.Fatalf("%s/%s rank=%d off=%d n=%d: element %d: bulk encrypt diverges from point oracle",
					backend, s.Name(), rank, off, n, j)
			}
			if err := s.DecryptAt(st, cipher[j*cs:(j+1)*cs], p1, 1, off+j); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(p1, back[j*ps:(j+1)*ps]) {
				t.Fatalf("%s/%s rank=%d off=%d n=%d: element %d: bulk decrypt diverges from point oracle",
					backend, s.Name(), rank, off, n, j)
			}
		}
	})
}

// fusedGolden pins the SHA-256 of every ciphertext (and of its decrypt)
// forEachFusedCase produces, per backend/scheme, in case order. The
// digests were recorded while a separate plane-materializing reference
// kernel still existed and produced exactly these bytes.
var fusedGolden = map[string][2]string{
	"aes-ctr-fast/int32-sum":            {"3896b463b0ce8982975cd49edc1aa78e609af07e6619dd27ea89bc9c64e70990", "8819df518aecd3195aa7c241a7978ea0c7f69eff23ce21ddf08d387754c9ec5d"},
	"aes-ctr-fast/int64-sum":            {"335073ed41c71f366a9ed13d680a8e6a8ce91cb5e360911729dc10098b81a628", "5522a618dea4844d07bf2455267427746ddabfb91da25d942d37cc69bca28939"},
	"aes-ctr-fast/int64-prod":           {"e1a955c3a5c281c4d59f63e3c23a8f5dacbbf56992d1454e225e9fc61ab62d9c", "007ae781b9ac7d4c983eaa64aaace3949f72cf02cfa2d5a7f021be3a9d0fcd5b"},
	"aes-ctr-fast/int64-xor":            {"0aac0d51fb27dee0d4f9688019957c29299d9d3cf09cbc19b78212481a5594cc", "12d6f5a8aec918c371cfaa08e1cdf469962ba367a6a440b4c485c71be5d1fda8"},
	"aes-ctr-fast/naive-int64-sum":      {"c5569b42644c6ceb67c6cd47d992e3799cda755bd2f670bd3b7d84adc286b662", "5018fcb74f43b5cccde4e8db91aa80fab885a50773ee5ec45010a8f76b6c0736"},
	"aes-ctr-fast/float32-sum-v1/γ=2":   {"532db7bddfd68f432c62d06ffc412e5da96065b376a192247811d50feaa7f56d", "9e72cfbf100d40e4c3595cc970d010b4238267f38fdee97dd123602b64e69c2d"},
	"aes-ctr-fast/float64-prod/γ=0":     {"6aac01ff34454784ea9688bb86749f46d275a4bfe4c57c54f3a8f0e1710fb92a", "d6a4489f219520579c6e2e7896d20f2219b56e50874bdbfff55e96c822f5dafc"},
	"aes-ctr-fast/float64-sum-v2/γ=0":   {"2ae5fe6f09af3f8d9aadc742f46c6db66240e4c48e41aaf0936760f437dcc795", "1271308a07ccb939bce61d15553c6901aabc569dae19f0f432a8fe69c97ff4a5"},
	"aes-ctr-fast/fixed64.16-sum":       {"ee5dbd7b93268b00ed365bce6904bbe57ba1bcd9da2421b41da25a82fff14df8", "5042d51927077811b1756de7dd388d44e0a39833fbff608fe5a05be4dd536aaa"},
	"aes-ctr-fast/fixed64.16-prod":      {"44408f4cf90c91c174fc200b0278e074458a665632f1785d4c87a7d1d88a6614", "46cfd1a725270561ced51c803e83cfd8cf6dd15f85e67e4c85c11af7c12f9335"},
	"aes-ctr-fast/parity-int64-sum":     {"335073ed41c71f366a9ed13d680a8e6a8ce91cb5e360911729dc10098b81a628", "5522a618dea4844d07bf2455267427746ddabfb91da25d942d37cc69bca28939"},
	"aes-ctr-scalar/int32-sum":          {"3896b463b0ce8982975cd49edc1aa78e609af07e6619dd27ea89bc9c64e70990", "8819df518aecd3195aa7c241a7978ea0c7f69eff23ce21ddf08d387754c9ec5d"},
	"aes-ctr-scalar/int64-sum":          {"335073ed41c71f366a9ed13d680a8e6a8ce91cb5e360911729dc10098b81a628", "5522a618dea4844d07bf2455267427746ddabfb91da25d942d37cc69bca28939"},
	"aes-ctr-scalar/int64-prod":         {"e1a955c3a5c281c4d59f63e3c23a8f5dacbbf56992d1454e225e9fc61ab62d9c", "007ae781b9ac7d4c983eaa64aaace3949f72cf02cfa2d5a7f021be3a9d0fcd5b"},
	"aes-ctr-scalar/int64-xor":          {"0aac0d51fb27dee0d4f9688019957c29299d9d3cf09cbc19b78212481a5594cc", "12d6f5a8aec918c371cfaa08e1cdf469962ba367a6a440b4c485c71be5d1fda8"},
	"aes-ctr-scalar/naive-int64-sum":    {"c5569b42644c6ceb67c6cd47d992e3799cda755bd2f670bd3b7d84adc286b662", "5018fcb74f43b5cccde4e8db91aa80fab885a50773ee5ec45010a8f76b6c0736"},
	"aes-ctr-scalar/float32-sum-v1/γ=2": {"532db7bddfd68f432c62d06ffc412e5da96065b376a192247811d50feaa7f56d", "9e72cfbf100d40e4c3595cc970d010b4238267f38fdee97dd123602b64e69c2d"},
	"aes-ctr-scalar/float64-prod/γ=0":   {"6aac01ff34454784ea9688bb86749f46d275a4bfe4c57c54f3a8f0e1710fb92a", "d6a4489f219520579c6e2e7896d20f2219b56e50874bdbfff55e96c822f5dafc"},
	"aes-ctr-scalar/float64-sum-v2/γ=0": {"2ae5fe6f09af3f8d9aadc742f46c6db66240e4c48e41aaf0936760f437dcc795", "1271308a07ccb939bce61d15553c6901aabc569dae19f0f432a8fe69c97ff4a5"},
	"aes-ctr-scalar/fixed64.16-sum":     {"ee5dbd7b93268b00ed365bce6904bbe57ba1bcd9da2421b41da25a82fff14df8", "5042d51927077811b1756de7dd388d44e0a39833fbff608fe5a05be4dd536aaa"},
	"aes-ctr-scalar/fixed64.16-prod":    {"44408f4cf90c91c174fc200b0278e074458a665632f1785d4c87a7d1d88a6614", "46cfd1a725270561ced51c803e83cfd8cf6dd15f85e67e4c85c11af7c12f9335"},
	"aes-ctr-scalar/parity-int64-sum":   {"335073ed41c71f366a9ed13d680a8e6a8ce91cb5e360911729dc10098b81a628", "5522a618dea4844d07bf2455267427746ddabfb91da25d942d37cc69bca28939"},
	"chacha20/int32-sum":                {"a5be8ec9c46e12bc3e75434bc507c50e964fe135545bfe67d11d34c0bce8e0de", "29b9c8f6402360a203a52ab29fb2521064cf0afe96c84112967d5cfacb76998e"},
	"chacha20/int64-sum":                {"778e2620342ca0203a91b29b870afe71e5ba069274a3e768165a48be86148db6", "00e5c2d5946d94ba34183531216da3cb8828cfa1d444de3407facdcbe33e1a03"},
	"chacha20/int64-prod":               {"f194cd64e76eb489e5149d7dc6f47aad55c6b72182c435ea07b034a60e7a9d1b", "363d4328531914c5b18585bac4d1e1da5312d4491de2409e7172bed843b44d88"},
	"chacha20/int64-xor":                {"eb9c804c75283ccfcb24e1b9f128ea69b45d44fd0fed2f8bab768358f31aba44", "3f168beeee0d1427be845331aa3eb8854ac4e00b7e786d7f1b732b3499054b86"},
	"chacha20/naive-int64-sum":          {"0a7eeb5bffce8f57621574272ae0a90bccd2b90ba740170f0496db1c8ecd4733", "d1d6c4b56d149f122e5f1875240d0626075c7d1a7898d18e76d03c96b100d449"},
	"chacha20/float32-sum-v1/γ=2":       {"c51289615c3a5c0943f4bd38ec775ca843768fe90cdb2510222487b162905d7f", "c8d215ce34eac7d0e48b5617c173217f8edaa865709a51f80dfffc82325bd946"},
	"chacha20/float64-prod/γ=0":         {"03e9825a3d8c258b43ce1105c1067ac354d666cc37512769f54acdf31ecae89a", "9960343dfd762aee1a76c06e2a6f4545515b04bd7ea75e4891b131552b3bc028"},
	"chacha20/float64-sum-v2/γ=0":       {"b5c82ec6ab0847c574e1553ca2031d46514dcacfe86bed96da693187bac78870", "4270815463cd4541903915e22c2c10f2b05b1a0c8017d3c62a4a0991de9b115e"},
	"chacha20/fixed64.16-sum":           {"de13e6774eb101ce3eae53c075ed231ac1f74312d6bcbf8a86a37b31bf0a5a16", "ee12d83ece651705fa787a31244f0c5c6f2eba38e4f7a173e84127e7b1768fb9"},
	"chacha20/fixed64.16-prod":          {"9a30ddc8f06989f6df903514c112c650ebc55a9001a61d5f0469317425884324", "c467f0ea8863ed78f90340e480737c39e4ce83f058a0ba41d32376ddfea1e73d"},
	"chacha20/parity-int64-sum":         {"778e2620342ca0203a91b29b870afe71e5ba069274a3e768165a48be86148db6", "00e5c2d5946d94ba34183531216da3cb8828cfa1d444de3407facdcbe33e1a03"},
	"sha1-ctr/int32-sum":                {"8e6d8a4d2412ca0627eed1b26fbfef008c451406a2ce7976ea80b68d339122b0", "da331b34b39ecc41b437c49390c39e3875e874f5c4e40e84a99f1e78feb1da1b"},
	"sha1-ctr/int64-sum":                {"6c671c785315fc0979a18ad67abb0c6d3a590f36f404d49046ceaf66fa39b6c4", "9fa677a0a4da75bd6b0415a8f84125be3646f28d9a0c79a08aaebdec75cb8aaf"},
	"sha1-ctr/int64-prod":               {"707fa6785ca53f36b6d450fc7a6dbac5e769c7aeb8fdc72a2713d3fafd7f77e4", "b72f1277b7316858d62f2bc8a3f41f61d528dcf8b5589944bf771ade6a48973b"},
	"sha1-ctr/int64-xor":                {"304487d2a779c7a09d8dfe59ec95df0244c2ed3caca81121ba1a3c88ff7e00f3", "aba4b6282bcba28ef1622d81287f17f7c60b74bfd37483348cb0acbdfa54659a"},
	"sha1-ctr/naive-int64-sum":          {"7b9b71d7ea37aa1b0e64f227657553a78d789fb1e08f7065e04ac93a41dd4730", "53f2aef642bff5c42a43d43b655e03eb6abc3cc83c994ba9571f1c92eae970a2"},
	"sha1-ctr/float32-sum-v1/γ=2":       {"126a5eab741ea2001412a3ddb3cc5ddcd4dcfd68d252bdb7fe78459cc6ac27d0", "9d1a0f3af10593af1ac26d4e54a0059a4b7ab95d3018c190db6438f8647950e9"},
	"sha1-ctr/float64-prod/γ=0":         {"0b792ba6f2a4e75e92790a7bb09de523a878db43287c30001904ab113c1c0847", "42fb4808eeccb428ae825bfcc161ab02869505813dcafe91d1b4c60c13a71ac5"},
	"sha1-ctr/float64-sum-v2/γ=0":       {"a03ba082b06481bb6c2abc659d5e24f443cca89d61c7640f834350e5e8fb9074", "49e278f18be2460db149c7a06a01894f99d61ae89b06860e4f1dbab2a4a4d6cf"},
	"sha1-ctr/fixed64.16-sum":           {"d59e5649a00ad624a2b748e17bf38f1237845cf8a50b7da1ddabc6bc6a9c263d", "40aa9a6cc538eaec418f1a10d7e1255416ef3ebd84132610a5822941bc8b75c8"},
	"sha1-ctr/fixed64.16-prod":          {"91e5d10d1bf64142781b7f7da104d52071ad65742624e639b8993bc388809740", "4213802b0f5f9c0699210020d9913758a27785cd73746bc00610919d5c8ac745"},
	"sha1-ctr/parity-int64-sum":         {"6c671c785315fc0979a18ad67abb0c6d3a590f36f404d49046ceaf66fa39b6c4", "9fa677a0a4da75bd6b0415a8f84125be3646f28d9a0c79a08aaebdec75cb8aaf"},
}

func TestFusedGoldenDigests(t *testing.T) {
	type digests struct{ enc, dec hash.Hash }
	got := map[string]digests{}
	var order []string
	forEachFusedCase(t, func(backend string, rank int, st *keys.RankState, s Scheme, off, n int, plain []byte) {
		key := backend + "/" + s.Name()
		d, ok := got[key]
		if !ok {
			d = digests{sha256.New(), sha256.New()}
			got[key] = d
			order = append(order, key)
		}
		cipher := make([]byte, n*s.CipherSize())
		if err := s.EncryptAt(st, plain, cipher, n, off); err != nil {
			t.Fatalf("%s rank=%d off=%d n=%d: encrypt: %v", key, rank, off, n, err)
		}
		back := make([]byte, n*s.PlainSize())
		if err := s.DecryptAt(st, cipher, back, n, off); err != nil {
			t.Fatalf("%s rank=%d off=%d n=%d: decrypt: %v", key, rank, off, n, err)
		}
		d.enc.Write(cipher)
		d.dec.Write(back)
	})
	if len(got) != len(fusedGolden) {
		t.Errorf("%d backend/scheme pairs, golden table has %d", len(got), len(fusedGolden))
	}
	for _, key := range order {
		enc := hex.EncodeToString(got[key].enc.Sum(nil))
		dec := hex.EncodeToString(got[key].dec.Sum(nil))
		if want := fusedGolden[key]; enc != want[0] || dec != want[1] {
			t.Errorf("%s: digests changed\n\tgot  {%q, %q}\n\twant {%q, %q}", key, enc, dec, want[0], want[1])
			t.Logf("\t%q: {%q, %q},", key, enc, dec)
		}
	}
}

// In-place operation (cipher aliasing plain) must work on the fused path —
// the loops never revisit a byte.
func TestFusedInPlace(t *testing.T) {
	states := genStatesBackend(t, 2, prf.BackendChaCha20)
	st := states[0]
	st.Advance()
	s, err := NewIntSum(64)
	if err != nil {
		t.Fatal(err)
	}
	const n = 500
	plain := fillPlain(s, n)
	want := make([]byte, n*8)
	if err := s.EncryptAt(st, plain, want, n, 3); err != nil {
		t.Fatal(err)
	}
	buf := append([]byte(nil), plain...)
	if err := s.EncryptAt(st, buf, buf, n, 3); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, want) {
		t.Fatal("in-place fused encrypt diverges from out-of-place")
	}
}

// The fused hot path must not allocate: software backends stream with zero
// allocations at any size. AES-fast streams short spans through direct
// block encryptions (0 allocations) and constructs one cipher.NewCTR
// stream per noise stream above prf.BlockBytes — two objects each — so a
// canceling rank's encrypt (self + next stream) pays 4, the last rank's
// and every decrypt (one stream) pay 2.
func TestFusedAllocs(t *testing.T) {
	sum, err := NewIntSum(64)
	if err != nil {
		t.Fatal(err)
	}
	xor, err := NewIntXor(64)
	if err != nil {
		t.Fatal(err)
	}
	const big = 2048 // 16 KiB of int64 lanes, larger than the staging buffer
	for _, s := range []Scheme{sum, xor} {
		st := genStatesBackend(t, 2, prf.BackendChaCha20)[0]
		st.Advance()
		if enc, dec := fusedAllocs(t, s, st, big); enc != 0 || dec != 0 {
			t.Errorf("%s/chacha20 n=%d: fused encrypt/decrypt allocate %.1f/%.1f per run, want 0/0", s.Name(), big, enc, dec)
		}
	}
	states := genStatesBackend(t, 2, prf.BackendAESFast)
	for _, tc := range []struct {
		rank, n  int
		enc, dec float64
	}{
		{0, 2, 0, 0}, // canceling rank, the allreduce-small shape
		{1, 2, 0, 0}, // last rank
		{0, big, 4, 2},
		{1, big, 2, 2},
	} {
		st := states[tc.rank]
		st.Advance()
		if enc, dec := fusedAllocs(t, sum, st, tc.n); enc != tc.enc || dec != tc.dec {
			t.Errorf("int64-sum/aes-fast rank=%d n=%d: fused encrypt/decrypt allocate %.1f/%.1f per run, want %.0f/%.0f",
				tc.rank, tc.n, enc, dec, tc.enc, tc.dec)
		}
	}
}

// fusedAllocs reports the average allocations of one n-element EncryptAt
// and one DecryptAt on st.
func fusedAllocs(t *testing.T, s Scheme, st *keys.RankState, n int) (enc, dec float64) {
	plain := fillPlain(s, n)
	cipher := make([]byte, n*s.CipherSize())
	enc = testing.AllocsPerRun(20, func() {
		if err := s.EncryptAt(st, plain, cipher, n, 0); err != nil {
			t.Fatal(err)
		}
	})
	dec = testing.AllocsPerRun(20, func() {
		if err := s.DecryptAt(st, cipher, plain, n, 0); err != nil {
			t.Fatal(err)
		}
	})
	return enc, dec
}

// Every scheme entry point must reject negative counts, negative offsets
// (which would silently wrap the uint64 keystream offset), and spans past
// the keystream address space, with a typed *SpanError.
func TestSpanErrors(t *testing.T) {
	states := genStates(t, 2)
	starting := []uint64{states[0].SelfKey, states[1].SelfKey}
	st := states[0]
	st.Advance()
	cases := []struct {
		name   string
		n, off int
	}{
		{"negative count", -1, 0},
		{"negative offset", 4, -1},
		{"negative offset wrap", 4, -1 << 40},
		{"address space overflow", 4, maxSpanElems - 3},
	}
	for _, s := range allSchemes(t, 2, starting) {
		plain := fillPlain(s, 8)
		cipher := make([]byte, 8*s.CipherSize())
		for _, tc := range cases {
			var spanErr *SpanError
			err := s.EncryptAt(st, plain, cipher, tc.n, tc.off)
			if !errors.As(err, &spanErr) {
				t.Errorf("%s: EncryptAt %s: got %v, want *SpanError", s.Name(), tc.name, err)
				continue
			}
			if spanErr.N != tc.n || spanErr.Off != tc.off {
				t.Errorf("%s: EncryptAt %s: SpanError carries n=%d off=%d, want n=%d off=%d",
					s.Name(), tc.name, spanErr.N, spanErr.Off, tc.n, tc.off)
			}
			if err := s.DecryptAt(st, cipher, plain, tc.n, tc.off); !errors.As(err, &spanErr) {
				t.Errorf("%s: DecryptAt %s: got %v, want *SpanError", s.Name(), tc.name, err)
			}
		}
		// Valid spans still pass (no over-rejection at the boundary).
		if err := s.EncryptAt(st, plain, cipher, 8, 0); err != nil {
			t.Errorf("%s: valid span rejected: %v", s.Name(), err)
		}
	}
}

// Short counts buffers must error out of the bool decoders instead of
// panicking in intWire.load (regression: DecodeOr/DecodeAnd used to index
// straight into counts).
func TestBoolCodecShortBuffers(t *testing.T) {
	c := BoolCodec{P: 3}
	out := make([]bool, 4)
	short := make([]byte, 4*len(out)-1)
	if err := c.DecodeOr(short, out); err == nil {
		t.Error("DecodeOr accepted a short counts buffer")
	}
	if err := c.DecodeAnd(short, out); err == nil {
		t.Error("DecodeAnd accepted a short counts buffer")
	}
	if err := c.EncodeBools(make([]bool, 4), short); err == nil {
		t.Error("EncodeBools accepted a short dst buffer")
	}
	// Exact-length buffers work.
	exact := make([]byte, 4*len(out))
	if err := c.EncodeBools([]bool{true, false, true, true}, exact); err != nil {
		t.Fatal(err)
	}
	if err := c.DecodeOr(exact, out); err != nil {
		t.Fatal(err)
	}
	if !out[0] || out[1] || !out[2] || !out[3] {
		t.Error("DecodeOr decoded wrong values")
	}
}
