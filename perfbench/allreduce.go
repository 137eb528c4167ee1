package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"sync/atomic"
	"time"

	"hear"
	"hear/internal/core"
	"hear/internal/metrics"
	"hear/internal/mpi"
)

const (
	ranks         = 2
	bulkElems     = 4 << 20 / 8 // 4 MiB of int64 per call
	pipelineBlock = 256 << 10   // Options.PipelineBlockBytes
	inputVariants = 3           // distinct input sets cycled through per op
	recvTimeout   = 10 * time.Second
	worldWatchdog = 60 * time.Second
	// Ops run in World.Run batches of batchWork plaintext bytes per rank
	// (at most maxBatchOps calls), with an idle gap of batchGap between
	// batches. The two rank goroutines settle into one of two hand-off
	// modes that differ by about 3 µs per 16 B call and persist while the
	// goroutines run (with GOMAXPROCS=1 too); short batches started from
	// idle draw the mode afresh each time, so a run's mix of the two is
	// about the same from run to run. reportModes prints the mix.
	batchWork   = 16 << 20
	maxBatchOps = 1 << 10
	batchGap    = 200 * time.Microsecond
)

// allreduceInputs are one seed's int64 vectors in wire format.
type allreduceInputs struct {
	n      int
	inputs [][][]byte // [variant][rank]
	want   [][]byte   // [variant] wrapping sum over ranks
}

func allreduceFactory(seed uint64, n int) factory {
	in := &allreduceInputs{n: n}
	rng := rand.New(rand.NewPCG(seed, 0x5eed0a11))
	for v := 0; v < inputVariants; v++ {
		per := make([][]byte, ranks)
		want := make([]byte, n*8)
		for r := range per {
			per[r] = make([]byte, n*8)
			for j := 0; j < n; j++ {
				x := rng.Uint64()
				binary.LittleEndian.PutUint64(per[r][j*8:], x)
				binary.LittleEndian.PutUint64(want[j*8:], binary.LittleEndian.Uint64(want[j*8:])+x)
			}
		}
		in.inputs = append(in.inputs, per)
		in.want = append(in.want, want)
	}
	return func(traced bool) (env, error) { return newAllreduceEnv(in, traced) }
}

// allreduceEnv is a two-rank world running AllreduceRaw with the int64
// SUM scheme back to back. Ranks are goroutines of this process.
type allreduceEnv struct {
	*allreduceInputs
	world   *mpi.World
	ctxs    []*hear.Context
	schemes []core.Scheme
	reg     *metrics.Registry // nil unless traced
	bufs    [][]byte          // [rank] in-place working buffer

	// per-batch timing scratch, [rank][op in batch]
	starts, ends [][]time.Time
	bad          [][]bool
	batch        int

	tracers []*rankTracer
}

// rankTracer carries the current op span of one rank to the spans its
// scheme wrapper records on engine workers and mpi progress goroutines.
type rankTracer struct {
	rec  *recorder
	cur  atomic.Int32 // index of the rank's current op span
	op   atomic.Int32
	part int8
}

func newAllreduceEnv(in *allreduceInputs, traced bool) (*allreduceEnv, error) {
	e := &allreduceEnv{allreduceInputs: in, world: mpi.NewWorld(ranks)}
	opts := hear.Options{PipelineBlockBytes: pipelineBlock, RecvTimeout: recvTimeout, PRFBackend: prfBackend}
	if traced {
		e.reg = metrics.New()
		opts.Metrics = e.reg
	}
	ctxs, err := hear.Init(e.world, opts)
	if err != nil {
		return nil, err
	}
	e.ctxs = ctxs
	for _, c := range ctxs {
		s, err := c.Scheme(hear.Int64Sum)
		if err != nil {
			return nil, err
		}
		e.schemes = append(e.schemes, s)
	}
	e.bufs = make([][]byte, ranks)
	e.starts = make([][]time.Time, ranks)
	e.ends = make([][]time.Time, ranks)
	e.bad = make([][]bool, ranks)
	for r := range e.bufs {
		e.bufs[r] = make([]byte, e.n*8)
		e.starts[r] = make([]time.Time, maxBatchOps)
		e.ends[r] = make([]time.Time, maxBatchOps)
		e.bad[r] = make([]bool, maxBatchOps)
	}
	e.tracers = make([]*rankTracer, ranks)
	for r := range e.tracers {
		e.tracers[r] = &rankTracer{part: int8(r)}
	}

	// The first op completes the set-up.
	first := &phase{minOps: 1, start: time.Now()}
	e.batch = 1
	if err := e.phase(first); err != nil {
		return nil, err
	}
	if first.failed > 0 {
		return nil, fmt.Errorf("first op returned a wrong result")
	}
	e.batch = max(1, min(int(batchWork/(e.n*8)), maxBatchOps))
	return e, nil
}

func (e *allreduceEnv) counters() map[string]float64 { return e.reg.Map() }

func (e *allreduceEnv) close() {}

// phase runs batches of e.batch ops per rank inside World.Run until p is
// done. Each op's latency is from the earliest rank entering the call to
// the last rank leaving it; each rank checks its own result afterwards.
func (e *allreduceEnv) phase(p *phase) error {
	for p.more() {
		if p.ops > 0 {
			time.Sleep(batchGap)
		}
		batch := e.batch
		schemes := e.schemes
		if p.rec != nil {
			schemes = make([]core.Scheme, ranks)
			for r := range schemes {
				e.tracers[r].rec = p.rec
				schemes[r] = &tracedScheme{Scheme: e.schemes[r], t: e.tracers[r]}
			}
		}
		base := p.ops
		// No watchdog (it would allocate a timer per batch): the ranks'
		// RecvTimeout already turns a hung collective into an error.
		err := e.world.Run(0, func(c *mpi.Comm) error {
			r := c.Rank()
			t := e.tracers[r]
			for k := 0; k < batch; k++ {
				v := (base + k) % inputVariants
				copy(e.bufs[r], e.inputs[v][r])
				var span int32 = -1
				if p.rec != nil {
					t.op.Store(int32(base + k))
					span = p.rec.begin(spanOp, -1, int32(base+k), t.part)
					t.cur.Store(span)
				}
				e.starts[r][k] = time.Now()
				err := e.ctxs[r].AllreduceRaw(c, schemes[r], e.bufs[r], e.n)
				e.ends[r][k] = time.Now()
				if p.rec != nil {
					p.rec.end(span)
				}
				if err != nil {
					return fmt.Errorf("rank %d op %d: %w", r, base+k, err)
				}
				e.bad[r][k] = !bytes.Equal(e.bufs[r], e.want[v])
			}
			return nil
		})
		if err != nil {
			p.failed++
			return err
		}
		for k := 0; k < batch; k++ {
			start, end := e.starts[0][k], e.ends[0][k]
			wrong := false
			for r := 0; r < ranks; r++ {
				if e.starts[r][k].Before(start) {
					start = e.starts[r][k]
				}
				if e.ends[r][k].After(end) {
					end = e.ends[r][k]
				}
				wrong = wrong || e.bad[r][k]
			}
			p.record(start, end)
			if wrong {
				p.failed++
			}
		}
		p.batchDone()
	}
	return nil
}

// reportModes prints how the untimed-gap batches of a phase split
// between the two rank scheduling patterns: each batch's median op
// latency, grouped into a fast and a slow mode at Otsu's threshold, with
// each mode's share of batches and its median. A shift in this mix moves
// latency_p50_us without any change in HEAR's cost, so read the two
// together.
func (e *allreduceEnv) reportModes(p *phase) {
	if e.batch < 2 || len(p.lat) < 2*e.batch {
		return
	}
	var meds []float64
	for i := 0; i+e.batch <= len(p.lat); i += e.batch {
		meds = append(meds, median(p.lat[i:i+e.batch]))
	}
	cut := otsuSplit(meds)
	var fast, slow []float64
	for _, m := range meds {
		if m <= cut {
			fast = append(fast, m)
		} else {
			slow = append(slow, m)
		}
	}
	share := func(g []float64) float64 { return float64(len(g)) / float64(len(meds)) }
	fmt.Printf("# batch_modes batches=%d ops_per_batch=%d fast_share=%.3f fast_p50_us=%.2f slow_share=%.3f slow_p50_us=%.2f\n",
		len(meds), e.batch, share(fast), median(fast), share(slow), median(slow))
}

// layers derives the per-layer metrics of the allreduce workloads.
func (e *allreduceEnv) elems() int { return e.n }

func (e *allreduceEnv) layers(un, tr *phase, pr probeResult) (map[string]float64, error) {
	m := map[string]float64{}
	spans := tr.rec.recorded()
	sums := spanSums(spans)
	tops := float64(tr.ops)
	m["core.encrypt_us"] = float64(sums[spanEncrypt]) / 1e3 / tops
	m["core.decrypt_us"] = float64(sums[spanDecrypt]) / 1e3 / tops
	m["core.reduce_us"] = float64(sums[spanReduce]) / 1e3 / tops

	// Self time: op span minus the union of its core.* children, per
	// rank op span; the median over those spans is reported.
	var selfNs, opNs int64
	var selfs []float64
	for i, s := range selfTimes(spans) {
		selfNs += s
		opNs += spans[i].end - spans[i].start
		selfs = append(selfs, float64(s)/1e3)
	}
	m["hear.call_self_us"] = median(selfs)

	// Engine: shard counters over the traced phase, efficiency against
	// the wall time during which any kernel span ran.
	shards := tr.deltaSum("hear_engine_phase_ops_total", "")
	busyS := tr.deltaSum("hear_engine_phase_seconds_total", "")
	workers := float64(e.ctxs[0].Workers())
	m["engine.shards_per_op"] = tr.perOp(shards)
	m["engine.shard_busy_us"] = tr.perOp(busyS * 1e6)
	if shards > 0 {
		var kernel []interval
		for _, s := range spans {
			if s.name != spanOp {
				kernel = append(kernel, interval{s.start, s.end})
			}
		}
		wall := unionLength(kernel, 0, 1<<62)
		m["engine.parallel_efficiency"] = busyS * 1e9 / (workers * float64(wall))
		fmt.Printf("# engine busy_us=%.1f workers=%d kernel_wall_us=%.1f\n", busyS*1e6, int(workers), float64(wall)/1e3)
	}

	hits, misses := un.delta("hear_mempool_hits_total"), un.delta("hear_mempool_misses_total")
	if gets := hits + misses; gets > 0 {
		m["mempool.hit_ratio"] = hits / gets
		fmt.Printf("# mempool gets=%.0f hits=%.0f\n", gets, hits)
	}
	m["mempool.waits_per_op"] = un.perOp(un.delta("hear_mempool_waits_total"))

	// What neither a span nor a probe explains: self time beyond one key
	// advance and the plaintext transport floor (plain allreduce minus
	// its fold), as a share of op time.
	perSpan := float64(len(selfs))
	explained := pr.advanceNs/1e3 + max(0, pr.plainUs-pr.foldUs)
	unexplained := max(0, float64(selfNs)/1e3/perSpan-explained)
	m["bench.unattributed_pct"] = 100 * unexplained / (float64(opNs) / 1e3 / perSpan)
	return m, nil
}
