// Package prf provides the pseudorandom functions HEAR derives its noise
// from (§5 of the paper: "F needs to be a cryptographically secure PRF such
// as AES"). A PRF is keyed once at construction (the encryption key k_e)
// and evaluated on inputs of the form k_s_i + k_c + j. Because j runs over
// consecutive vector indices, evaluation maps naturally onto a counter-mode
// keystream: the stream is identified by a 64-bit nonce (k_s_i + k_c) and
// the word at index j is F_{k_e}(nonce, j).
//
// Backends mirror the paper's Figure 4/5 candidates:
//
//   - AES-CTR "fast" (stdlib crypto/aes + cipher.NewCTR, which uses the
//     hardware AES-NI and pipelined multi-block assembly — the analogue of
//     the paper's hand-tuned AES-NI + SSE2 implementation),
//   - AES-CTR "scalar" (one block at a time — the analogue of the
//     non-vectorized AES-NI version),
//   - SHA1-counter (the OpenSSL SHA1 baseline the paper rejects),
//   - xorshift (insecure; a lower bound on noise-generation cost used only
//     by ablation benchmarks, never by the schemes).
package prf

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/sha1"
	"encoding/binary"
	"fmt"
)

// BlockSize is the keystream block granularity in bytes. All backends
// expose a 16-byte block layout so that ciphertext words land at identical
// offsets regardless of backend.
const BlockSize = 16

// PRF is a keyed pseudorandom function evaluated as a random-access
// keystream. Implementations must be safe for concurrent use by multiple
// goroutines after construction.
type PRF interface {
	// Name identifies the backend in benchmark output.
	Name() string
	// Keystream writes len(dst) bytes of the stream identified by nonce,
	// starting at byte offset off. Equal (nonce, off) always yields equal
	// bytes; streams with different nonces are computationally independent.
	Keystream(dst []byte, nonce, off uint64)
	// Uint64 returns the 64-bit little-endian word at word index idx of the
	// stream, i.e. bytes [8*idx, 8*idx+8). This is the point-query form
	// F_{k_e}(k_s + k_c + j) used by decryption.
	Uint64(nonce, idx uint64) uint64
}

// blockFunc computes the 16-byte keystream block blockIdx of stream nonce.
type blockFunc func(dst *[BlockSize]byte, nonce, blockIdx uint64)

// genericKeystream assembles an arbitrary (offset, length) keystream span
// from a block function. Backends with no bulk path use it directly.
func genericKeystream(dst []byte, nonce, off uint64, f blockFunc) {
	var block [BlockSize]byte
	for len(dst) > 0 {
		blockIdx := off / BlockSize
		inner := off % BlockSize
		f(&block, nonce, blockIdx)
		n := copy(dst, block[inner:])
		dst = dst[n:]
		off += uint64(n)
	}
}

// genericUint64 extracts word idx via the block function.
func genericUint64(nonce, idx uint64, f blockFunc) uint64 {
	var block [BlockSize]byte
	f(&block, nonce, idx/2)
	return binary.LittleEndian.Uint64(block[(idx%2)*8:])
}

// --- AES backends ---

type aesScalar struct {
	block cipher.Block
}

// NewAESScalar returns the one-block-at-a-time AES-CTR PRF. key must be
// 16, 24, or 32 bytes (AES-128/192/256).
func NewAESScalar(key []byte) (PRF, error) {
	b, err := aes.NewCipher(key)
	if err != nil {
		return nil, fmt.Errorf("prf: aes key: %w", err)
	}
	return &aesScalar{block: b}, nil
}

func (p *aesScalar) Name() string { return "aes-ctr-scalar" }

// blockAt encrypts the counter block nonce‖blockIdx in place in dst
// (cipher.Block allows exact overlap): a local input array would escape
// through the interface call and cost one heap allocation per block.
func (p *aesScalar) blockAt(dst *[BlockSize]byte, nonce, blockIdx uint64) {
	binary.BigEndian.PutUint64(dst[0:8], nonce)
	binary.BigEndian.PutUint64(dst[8:16], blockIdx)
	p.block.Encrypt(dst[:], dst[:])
}

func (p *aesScalar) Keystream(dst []byte, nonce, off uint64) {
	genericKeystream(dst, nonce, off, p.blockAt)
}

func (p *aesScalar) Uint64(nonce, idx uint64) uint64 {
	return genericUint64(nonce, idx, p.blockAt)
}

type aesFast struct {
	aesScalar // reuse the block function for point queries
}

// NewAESFast returns the bulk AES-CTR PRF built on cipher.NewCTR, which
// dispatches to the pipelined hardware-AES assembly in the Go runtime.
// Bulk keystream bytes are bit-identical to the scalar backend's.
func NewAESFast(key []byte) (PRF, error) {
	b, err := aes.NewCipher(key)
	if err != nil {
		return nil, fmt.Errorf("prf: aes key: %w", err)
	}
	return &aesFast{aesScalar{block: b}}, nil
}

func (p *aesFast) Name() string { return "aes-ctr-fast" }

func (p *aesFast) Keystream(dst []byte, nonce, off uint64) {
	// Small-message fast path: constructing a CTR stream object allocates
	// and costs more than a handful of direct block encryptions. 16 B
	// Allreduce latency (Figure 4) lives or dies on this branch.
	if len(dst) <= 4*BlockSize {
		genericKeystream(dst, nonce, off, p.blockAt)
		return
	}
	// Align the CTR stream to the enclosing block range, then slice out the
	// requested span. cipher.NewCTR increments the full 16-byte IV as a
	// big-endian counter, so an IV of nonce||blockIdx walks blockIdx first —
	// identical to the scalar layout until 2^64 blocks per nonce, far above
	// any message size.
	firstBlock := off / BlockSize
	inner := int(off % BlockSize)
	var iv [BlockSize]byte
	binary.BigEndian.PutUint64(iv[0:8], nonce)
	binary.BigEndian.PutUint64(iv[8:16], firstBlock)
	ctr := cipher.NewCTR(p.block, iv[:])
	if inner == 0 {
		for i := range dst {
			dst[i] = 0
		}
		ctr.XORKeyStream(dst, dst)
		return
	}
	// Unaligned start: dst is pure output, so synthesize the head block in
	// dst[:BlockSize] (the branch above the small-message cutoff guarantees
	// the room), slide the bytes from inner on to the front, and let the
	// same CTR stream continue over the remainder — no per-call heap span,
	// which matters because the engine's sharded paths land on this branch
	// whenever a shard boundary splits a block.
	for i := range dst[:BlockSize] {
		dst[i] = 0
	}
	ctr.XORKeyStream(dst[:BlockSize], dst[:BlockSize])
	n := copy(dst, dst[inner:BlockSize])
	rest := dst[n:]
	for i := range rest {
		rest[i] = 0
	}
	ctr.XORKeyStream(rest, rest)
}

// --- SHA1 backend ---

type sha1PRF struct {
	key []byte
}

// NewSHA1 returns the SHA1-counter PRF: block i of stream nonce is the
// first 16 bytes of SHA1(key || nonce || i). This mirrors the paper's
// OpenSSL-SHA1 libhear variant, which it rejects for line-rate use.
func NewSHA1(key []byte) PRF {
	k := make([]byte, len(key))
	copy(k, key)
	return &sha1PRF{key: k}
}

func (p *sha1PRF) Name() string { return "sha1-ctr" }

func (p *sha1PRF) blockAt(dst *[BlockSize]byte, nonce, blockIdx uint64) {
	h := sha1.New()
	h.Write(p.key)
	var in [16]byte
	binary.BigEndian.PutUint64(in[0:8], nonce)
	binary.BigEndian.PutUint64(in[8:16], blockIdx)
	h.Write(in[:])
	var sum [sha1.Size]byte
	h.Sum(sum[:0])
	copy(dst[:], sum[:BlockSize])
}

func (p *sha1PRF) Keystream(dst []byte, nonce, off uint64) {
	genericKeystream(dst, nonce, off, p.blockAt)
}

func (p *sha1PRF) Uint64(nonce, idx uint64) uint64 {
	return genericUint64(nonce, idx, p.blockAt)
}

// --- xorshift backend (INSECURE) ---

type xorshiftPRF struct {
	key uint64
}

// NewXorshift returns a statistically-random but cryptographically
// worthless PRF based on splitmix64 finalization. It exists only to bound
// the cost of noise generation in ablation benchmarks; the schemes refuse
// to accept it unless explicitly configured for benchmarking.
func NewXorshift(key uint64) PRF { return &xorshiftPRF{key: key} }

func (p *xorshiftPRF) Name() string { return "xorshift-insecure" }

func mix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

func (p *xorshiftPRF) wordAt(nonce, idx uint64) uint64 {
	return mix64(p.key ^ mix64(nonce) + idx*0x9E3779B97F4A7C15)
}

func (p *xorshiftPRF) blockAt(dst *[BlockSize]byte, nonce, blockIdx uint64) {
	binary.LittleEndian.PutUint64(dst[0:8], p.wordAt(nonce, blockIdx*2))
	binary.LittleEndian.PutUint64(dst[8:16], p.wordAt(nonce, blockIdx*2+1))
}

func (p *xorshiftPRF) Keystream(dst []byte, nonce, off uint64) {
	genericKeystream(dst, nonce, off, p.blockAt)
}

func (p *xorshiftPRF) Uint64(nonce, idx uint64) uint64 {
	return genericUint64(nonce, idx, p.blockAt)
}

// Backend names accepted by New.
const (
	BackendAESFast   = "aes-ctr-fast"
	BackendAESScalar = "aes-ctr-scalar"
	BackendSHA1      = "sha1-ctr"
	BackendChaCha20  = "chacha20"
	BackendXorshift  = "xorshift-insecure"
)

// New constructs a backend by name. key is the PRF key k_e; AES backends
// require 16/24/32 bytes, the others accept any non-empty key.
func New(backend string, key []byte) (PRF, error) {
	if len(key) == 0 {
		return nil, fmt.Errorf("prf: empty key")
	}
	switch backend {
	case BackendAESFast:
		return NewAESFast(key)
	case BackendAESScalar:
		return NewAESScalar(key)
	case BackendSHA1:
		return NewSHA1(key), nil
	case BackendChaCha20:
		return NewChaCha20(key)
	case BackendXorshift:
		return NewXorshift(binary.LittleEndian.Uint64(pad8(key))), nil
	default:
		return nil, fmt.Errorf("prf: unknown backend %q", backend)
	}
}

func pad8(key []byte) []byte {
	if len(key) >= 8 {
		return key[:8]
	}
	out := make([]byte, 8)
	copy(out, key)
	return out
}
