// Package noise is HEAR's keystream prefetch engine. Figure 4 charges the
// dominant host-side share of an encrypted Allreduce to enc/dec — i.e. to
// PRF keystream generation — but the key schedule makes that cost
// hideable: the collective key advances deterministically
// (k_c ← F_{k_p}(k_c)), so every noise-stream nonce of collective t+1 is
// known the moment collective t begins. A Prefetcher exploits that by
// speculatively generating the next epoch's noise planes on the cipher
// engine's worker pool while the current collective is blocked on the
// network, then serving Encrypt/Decrypt from the precomputed bytes through
// a cache-backed prf.PRF installed as the rank's keys.RankState.Enc.
//
// Correctness rests on three invariants:
//
//  1. Bit-identity. Counter-mode keystream is a pure function of
//     (nonce, offset), so a cache hit copies exactly the bytes the live
//     backend would have produced, and a partial hit composes a cached
//     prefix with a backend-generated tail at the continuation offset.
//     Schemes cannot observe whether they were prefetched.
//
//  2. Epoch tagging. A plane is consumed only when its (nonce, epoch) tag
//     matches the rank state's current epoch at consume time. Out-of-band
//     Advance calls — the verified-retry ladder re-advancing the whole
//     group, a gateway sealer catching up several epochs — simply turn the
//     speculation into a miss; stale noise is never decrypted with.
//
//  3. No consume-side waiting. The consume path never blocks on in-flight
//     generation: a plane that is not ready is a full miss. Waiting could
//     deadlock — decrypt shards occupying every pool worker would starve
//     the generation shards queued behind them — and could never win, since
//     a generation that did not fit inside the communication window would
//     just serialize in front of the fold it was meant to hide.
package noise

import (
	"sync"
	"sync/atomic"

	"hear/internal/core"
	"hear/internal/engine/pool"
	"hear/internal/keys"
	"hear/internal/mempool"
	"hear/internal/prf"
	"hear/internal/trace"
)

// Trace phase names recorded into the engine pool's accumulator, extending
// the Figure-4 breakdown with the overlap's own accounting: prefetch_gen
// carries durations (one sample per generated plane or generation shard),
// the *_bytes phases carry byte counters (trace.Breakdown.Bytes).
const (
	PhaseGen       = "prefetch_gen"
	PhaseHitBytes  = "prefetch_hit_bytes"
	PhaseMissBytes = "prefetch_miss_bytes"
)

const (
	// minPlaneBytes is the smallest plane worth speculating on: below this
	// the AES-NI keystream costs less than the bookkeeping that hides it.
	minPlaneBytes = 1 << 10
	// genShardBytes sizes generation shards on the worker pool, matching
	// the engine's MaxShardBytes so plane generation interleaves with
	// foreground crypto shards instead of monopolizing a worker.
	genShardBytes = 256 << 10
)

// Plan is one key epoch's nonce schedule: the stream identifier of every
// noise class plus the epoch the schedule belongs to.
type Plan struct {
	Epoch  uint64
	Nonces [core.NumNoiseClasses]uint64
}

// Current derives the plan of the state's present epoch.
func Current(st *keys.RankState) Plan {
	return Plan{
		Epoch: st.Epoch(),
		Nonces: [core.NumNoiseClasses]uint64{
			core.NoiseSelf:       st.SelfNonce(),
			core.NoiseNext:       st.NextNonce(),
			core.NoiseRoot:       st.RootNonce(),
			core.NoiseCollective: st.CollectiveNonce(),
		},
	}
}

// Next predicts the plan one Advance ahead via keys.PeekAdvance, without
// touching the schedule: nonce(class) = class key + F_{k_p}(k_c).
func Next(st *keys.RankState) Plan {
	kc, epoch := st.PeekAdvance()
	return Plan{
		Epoch: epoch,
		Nonces: [core.NumNoiseClasses]uint64{
			core.NoiseSelf:       st.SelfKey + kc,
			core.NoiseNext:       st.NextKey + kc,
			core.NoiseRoot:       st.RootKey + kc,
			core.NoiseCollective: kc,
		},
	}
}

// plane is one contiguous keystream span [0, len(buf)) of one stream in
// one epoch. The generation goroutine owns buf until it publishes ready;
// after that the buffer is immutable until a Kick reaps the plane.
type plane struct {
	class core.NoiseClass
	epoch uint64
	nonce uint64
	block []byte        // backing mempool block
	buf   []byte        // block[:planeBytes]
	owner *mempool.Pool // pool the block returns to (pools are swapped on regrow)
	ready atomic.Bool
}

// Stats are a prefetcher's lifetime counters.
type Stats struct {
	// HitBytes / MissBytes split the bulk keystream demand that went
	// through the cached PRF. Point queries (Uint64) are not counted; they
	// always go to the backend.
	HitBytes  uint64
	MissBytes uint64
	// GenBytes / GenPlanes count speculative generation output.
	GenBytes  uint64
	GenPlanes uint64
	// RecycledPlanes counts planes reaped after their epoch passed —
	// consumed or not; a high recycle rate with a low hit rate means the
	// speculation is mispredicting (e.g. out-of-band Advance calls).
	RecycledPlanes uint64
}

// HitRate is HitBytes / (HitBytes + MissBytes), 0 when nothing was asked.
func (s Stats) HitRate() float64 {
	total := s.HitBytes + s.MissBytes
	if total == 0 {
		return 0
	}
	return float64(s.HitBytes) / float64(total)
}

// Prefetcher double-buffers noise planes for one rank: planes of the
// current epoch (being consumed) and of the next (being generated) coexist
// in one list, distinguished by their epoch tags; each Kick reaps planes
// whose epoch has passed and starts generation for the epochs ahead.
//
// Concurrency: Kick and the cached PRF's reads may overlap arbitrarily —
// engine worker shards consume planes concurrently while a generation
// goroutine fills others. Consume paths hold the read lock only for the
// table scan and prefix copy; generation happens outside the lock on
// buffers unreachable until ready publishes them.
type Prefetcher struct {
	st      *keys.RankState
	backend prf.PRF
	pool    *pool.Pool // nil: generate serially on the kick goroutine
	phases  *trace.SyncBreakdown
	budget  int

	mu     sync.RWMutex
	planes []*plane
	blocks *mempool.Pool

	gen sync.WaitGroup

	hitBytes, missBytes, genBytes, genPlanes, recycled atomic.Uint64
}

// Attach builds a prefetcher over the state's live PRF backend and
// installs the cache-backed wrapper as st.Enc, so every scheme consuming
// st's noise flows through the cache from then on. budget caps the total
// bytes of retained planes (<= 0 disables and returns nil). wp may be nil
// (generation then runs unsharded on its own goroutine); phases may be nil
// (a private accumulator is used).
func Attach(st *keys.RankState, wp *pool.Pool, phases *trace.SyncBreakdown, budget int) *Prefetcher {
	if budget <= 0 {
		return nil
	}
	if phases == nil {
		phases = trace.NewSyncBreakdown()
	}
	p := &Prefetcher{st: st, backend: st.Enc, pool: wp, phases: phases, budget: budget}
	st.Enc = cachedPRF{p}
	return p
}

// Backend returns the live PRF the cache falls through to.
func (p *Prefetcher) Backend() prf.PRF { return p.backend }

// Stats snapshots the lifetime counters.
func (p *Prefetcher) Stats() Stats {
	return Stats{
		HitBytes:       p.hitBytes.Load(),
		MissBytes:      p.missBytes.Load(),
		GenBytes:       p.genBytes.Load(),
		GenPlanes:      p.genPlanes.Load(),
		RecycledPlanes: p.recycled.Load(),
	}
}

// Drain blocks until every in-flight generation goroutine has retired.
// Tests use it to make hit/miss assertions deterministic; the data path
// never needs it.
func (p *Prefetcher) Drain() { p.gen.Wait() }

// Kick starts speculative generation for an n-element collective of a
// scheme with the given profile: the current epoch's decrypt planes (a
// cold-start self-heal — in steady state they already exist from the
// previous kick) and the next epoch's encrypt and decrypt planes. Call it
// after this call's Encrypt, as the blocking reduction begins, so
// generation overlaps the communication window. Planes the budget cannot
// cover are truncated (a shorter plane still prefix-hits) or skipped.
// Kick never blocks on generation and is cheap on the caller: table
// bookkeeping plus one goroutine spawn.
func (p *Prefetcher) Kick(prof core.NoiseProfile, n int) {
	if p == nil || n <= 0 || prof.BytesPerElem <= 0 {
		return
	}
	want := n * prof.BytesPerElem
	if want > p.budget {
		want = p.budget
	}
	if want < minPlaneBytes {
		return
	}
	cur, next := Current(p.st), Next(p.st)

	type req struct {
		class core.NoiseClass
		epoch uint64
		nonce uint64
	}
	var reqs []req
	add := func(pl Plan, classes []core.NoiseClass) {
		for _, cl := range classes {
			if cl == core.NoiseNext && p.st.IsLast() {
				continue // the last rank draws no canceling stream
			}
			r := req{class: cl, epoch: pl.Epoch, nonce: pl.Nonces[cl]}
			dup := false
			for _, q := range reqs {
				if q == r {
					dup = true
					break
				}
			}
			if !dup {
				reqs = append(reqs, r)
			}
		}
	}
	// Priority order is consumption order: the current epoch's decrypt
	// planes are needed the moment the in-flight reduction returns, the
	// next epoch's planes only one collective later.
	add(cur, prof.Decrypt)
	add(next, prof.Encrypt)
	add(next, prof.Decrypt)

	var fresh []*plane
	p.mu.Lock()
	p.reapLocked(cur.Epoch)
	live := 0
	for _, q := range p.planes {
		live += len(q.buf)
	}
	for _, r := range reqs {
		if p.haveLocked(r.nonce, r.epoch) {
			continue
		}
		size := want
		if remain := p.budget - live; size > remain {
			size = remain
		}
		if size < minPlaneBytes {
			break
		}
		blk := p.blockLocked(size)
		if blk == nil {
			break
		}
		pl := &plane{class: r.class, epoch: r.epoch, nonce: r.nonce, block: blk, buf: blk[:size], owner: p.blocks}
		p.planes = append(p.planes, pl)
		fresh = append(fresh, pl)
		live += size
	}
	p.mu.Unlock()

	if len(fresh) == 0 {
		return
	}
	p.gen.Add(1)
	go p.generate(fresh)
}

// generate fills planes in priority order and publishes each as it
// completes, so an early consumer can hit plane 0 while plane 2 is still
// generating. Sharding runs on the worker pool via Run, whose first shard
// executes inline on this goroutine — generation makes progress even when
// every worker is busy with foreground crypto, and consumers never wait on
// it (invariant 3), so sharing the pool cannot deadlock.
func (p *Prefetcher) generate(planes []*plane) {
	defer p.gen.Done()
	for _, pl := range planes {
		nb := len(pl.buf)
		if p.pool == nil || nb <= genShardBytes {
			stop := p.phases.Start(PhaseGen)
			p.backend.Keystream(pl.buf, pl.nonce, 0)
			stop()
		} else {
			p.pool.Run(nb, genShardBytes, PhaseGen, func(start, count int) error {
				p.backend.Keystream(pl.buf[start:start+count], pl.nonce, uint64(start))
				return nil
			})
		}
		pl.ready.Store(true)
		p.genBytes.Add(uint64(nb))
		p.genPlanes.Add(1)
	}
}

// haveLocked reports whether a plane (ready or generating) already covers
// (nonce, epoch).
func (p *Prefetcher) haveLocked(nonce, epoch uint64) bool {
	for _, q := range p.planes {
		if q.nonce == nonce && q.epoch == epoch {
			return true
		}
	}
	return false
}

// reapLocked recycles ready planes whose epoch predates the current one.
// A stale plane still being generated keeps its block until a later reap
// finds it ready — its generation goroutine owns the buffer until then.
func (p *Prefetcher) reapLocked(epoch uint64) {
	kept := p.planes[:0]
	for _, q := range p.planes {
		if q.epoch < epoch && q.ready.Load() {
			if q.owner != nil {
				// Put only fails for foreign sizes, impossible for a block
				// returning to the pool it came from.
				_ = q.owner.Put(q.block)
			}
			p.recycled.Add(1)
			continue
		}
		kept = append(kept, q)
	}
	// Drop reaped tail pointers so the backing array doesn't pin planes.
	for i := len(kept); i < len(p.planes); i++ {
		p.planes[i] = nil
	}
	p.planes = kept
}

// blockLocked returns a pooled block of at least size bytes, swapping in a
// larger-blocked pool when planes outgrow the current one. Blocks of a
// replaced pool drain back to their own (plane.owner) pool, which becomes
// garbage once its last plane retires. Block sizes are powers of two, so
// resident memory can exceed the budget by at most 2×.
func (p *Prefetcher) blockLocked(size int) []byte {
	if p.blocks == nil || p.blocks.BlockSize() < size {
		bs := minPlaneBytes
		for bs < size {
			bs <<= 1
		}
		np, err := mempool.New(bs, 0, 0)
		if err != nil {
			return nil
		}
		p.blocks = np
	}
	b, err := p.blocks.Get()
	if err != nil {
		return nil
	}
	return b
}

// keystream is the cached bulk read: serve the longest prefix available
// from a matching ready plane of the current epoch, then fall through to
// the backend for the tail at the continuation offset. Bit-identical to a
// pure backend read by counter-mode purity (invariant 1).
func (p *Prefetcher) keystream(dst []byte, nonce, off uint64) {
	if len(dst) == 0 {
		return
	}
	epoch := p.st.Epoch()
	hit := 0
	p.mu.RLock()
	for _, q := range p.planes {
		if q.nonce == nonce && q.epoch == epoch && q.ready.Load() {
			if off < uint64(len(q.buf)) {
				hit = copy(dst, q.buf[off:])
			}
			break
		}
	}
	p.mu.RUnlock()
	if hit > 0 {
		p.hitBytes.Add(uint64(hit))
		p.phases.AddBytes(PhaseHitBytes, int64(hit))
	}
	if hit < len(dst) {
		miss := len(dst) - hit
		p.backend.Keystream(dst[hit:], nonce, off+uint64(hit))
		p.missBytes.Add(uint64(miss))
		p.phases.AddBytes(PhaseMissBytes, int64(miss))
	}
}

// cachedSpan reports the longest ready cached prefix of span [off, off+n)
// of stream nonce in the current epoch, rounded down to whole streaming
// blocks (prf.BlockBytes), and accounts the remainder as misses — the
// fused caller generates that tail directly on the backend, bypassing this
// wrapper's accounting. The prefix itself is NOT accounted here: the
// caller reads it through Keystream, whose hit path counts it. (If the
// plane is reaped between the two calls, those bytes are re-generated and
// counted as misses instead — a rare epoch-turn race that only skews
// stats, never bytes.)
func (p *Prefetcher) cachedSpan(nonce, off uint64, n int) int {
	if n <= 0 {
		return 0
	}
	epoch := p.st.Epoch()
	k := 0
	p.mu.RLock()
	for _, q := range p.planes {
		if q.nonce == nonce && q.epoch == epoch && q.ready.Load() {
			if off < uint64(len(q.buf)) {
				k = len(q.buf) - int(off)
				if k > n {
					k = n
				}
			}
			break
		}
	}
	p.mu.RUnlock()
	k &^= prf.BlockBytes - 1
	if miss := n - k; miss > 0 {
		p.missBytes.Add(uint64(miss))
		p.phases.AddBytes(PhaseMissBytes, int64(miss))
	}
	return k
}

// cachedPRF is the prf.PRF the prefetcher installs as RankState.Enc. Bulk
// reads go through the plane cache; point queries (Uint64) bypass it —
// they are O(1) block encryptions not worth a table scan. It
// also implements prf.SpanCache, which is how the fused scheme kernels
// (internal/core) split a noise span into a plane-served prefix and a
// block-streamed tail: prefetch hit uses the plane, miss uses fusion.
type cachedPRF struct{ p *Prefetcher }

func (c cachedPRF) Name() string { return "prefetch+" + c.p.backend.Name() }

func (c cachedPRF) Keystream(dst []byte, nonce, off uint64) { c.p.keystream(dst, nonce, off) }

func (c cachedPRF) Uint64(nonce, idx uint64) uint64 { return c.p.backend.Uint64(nonce, idx) }

// CachedSpan implements prf.SpanCache.
func (c cachedPRF) CachedSpan(nonce, off uint64, n int) int {
	return c.p.cachedSpan(nonce, off, n)
}

// Generator implements prf.SpanCache: the live backend the fused kernels
// stream uncached tails from.
func (c cachedPRF) Generator() prf.PRF { return c.p.backend }

// cachedPRF must satisfy the probing interface the fused kernels use.
var _ prf.SpanCache = cachedPRF{}
