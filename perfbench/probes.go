package main

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"time"

	"hear"
	"hear/internal/keys"
	"hear/internal/mpi"
	"hear/internal/prf"
)

// Isolated probes time one layer that has no public injection point by
// calling it directly at the workload's exact message size. Each probe
// times probeRounds batches of calls and reports the median batch mean.
const (
	probeRounds = 5
	probeBatch  = 40 * time.Millisecond
)

// probeResult holds every isolated probe, run at one op's message size.
type probeResult struct {
	advanceNs        float64 // one RankState.Advance
	keystreamNsKiB   float64 // Keystream over one op-sized noise span
	plainUs, foldUs  float64 // plaintext AllreduceAlgo of the op's bytes, and its fold
	tagNs, verifyNs  float64 // HoMAC Tag and Verify per element
	allocsPerElement float64 // heap allocations of one Tag plus one Verify per element
}

// runProbes times every layer without an injection point at a message of
// elems int64 elements. It runs on every workload, whether or not the
// workload's ops pass through the layer, so each probe reads the layer's
// cost at that size; README.md says where each should matter.
func runProbes(elems int, z uint64) (pr probeResult, err error) {
	if pr.advanceNs, err = probeAdvance(); err != nil {
		return pr, err
	}
	if pr.keystreamNsKiB, err = probeKeystream(elems * 8); err != nil {
		return pr, err
	}
	if pr.plainUs, pr.foldUs, err = probePlainAllreduce(elems); err != nil {
		return pr, err
	}
	pr.tagNs, pr.verifyNs, pr.allocsPerElement, err = probeHoMAC(elems, z)
	return pr, err
}

// fill records the probe metrics; unP50 is the untraced op p50 in µs.
func (pr probeResult) fill(m map[string]float64, unP50 float64) {
	m["keys.advance_ns"] = pr.advanceNs
	m["prf.keystream_ns_per_kib"] = pr.keystreamNsKiB
	m["mpi.plain_allreduce_us"] = pr.plainUs
	m["hear.overhead_pct"] = 100 * (unP50 - pr.plainUs) / pr.plainUs
	m["homac.tag_ns_per_elem"] = pr.tagNs
	m["homac.verify_ns_per_elem"] = pr.verifyNs
	m["homac.allocs_per_elem"] = pr.allocsPerElement
}

// timeBatches runs fn repeatedly in probeRounds batches of about
// probeBatch each and returns the median per-call time in nanoseconds.
func timeBatches(fn func()) float64 {
	// Calibrate how many calls fill one batch.
	calls := 1
	for {
		t0 := time.Now()
		for i := 0; i < calls; i++ {
			fn()
		}
		if d := time.Since(t0); d >= probeBatch/4 || calls >= 1<<24 {
			calls = int(float64(calls) * float64(probeBatch) / float64(max(d, 1)))
			break
		}
		calls *= 4
	}
	calls = max(calls, 1)
	per := make([]float64, probeRounds)
	for r := range per {
		t0 := time.Now()
		for i := 0; i < calls; i++ {
			fn()
		}
		per[r] = float64(time.Since(t0).Nanoseconds()) / float64(calls)
	}
	return median(per)
}

// prfBackend is the noise PRF of every workload and of the probes, so
// the probes time the backend the workloads run.
const prfBackend = prf.BackendAESFast

func probeStates() ([]*keys.RankState, error) {
	return keys.Generate(ranks, keys.Config{Backend: prfBackend})
}

// probeAdvance is the cost of one collective key advance, ns.
func probeAdvance() (float64, error) {
	st, err := probeStates()
	if err != nil {
		return 0, err
	}
	return timeBatches(st[0].Advance), nil
}

// probeKeystream is the configured PRF backend's keystream cost over one
// noise span of the op's size, ns per KiB.
func probeKeystream(spanBytes int) (float64, error) {
	st, err := probeStates()
	if err != nil {
		return 0, err
	}
	st[0].Advance()
	buf := make([]byte, spanBytes)
	nonce := st[0].SelfNonce()
	ns := timeBatches(func() { st[0].Enc.Keystream(buf, nonce, 0) })
	return ns / (float64(spanBytes) / 1024), nil
}

// probePlainAllreduce times the plaintext Comm.AllreduceAlgo with HEAR's
// bytes, ranks and algorithm: the transport floor. It returns the median
// call latency and the median time spent in the fold inside it, in µs.
func probePlainAllreduce(n int) (callUs, foldUs float64, err error) {
	w := mpi.NewWorld(ranks)
	bufs := make([][]byte, ranks)
	for r := range bufs {
		bufs[r] = make([]byte, n*8)
		for j := 0; j < n; j++ {
			binary.LittleEndian.PutUint64(bufs[r][j*8:], uint64(j*ranks+r))
		}
	}
	foldNs := make([]int64, ranks)
	folds := make([]mpi.Op, ranks)
	for r := range folds {
		r := r
		folds[r] = mpi.OpFrom("timed-sum-int64", func(dst, src []byte, cnt int) {
			t0 := time.Now()
			mpi.SumInt64.Fold(dst, src, cnt)
			foldNs[r] += int64(time.Since(t0))
		})
	}
	// Enough calls for ~probeRounds×probeBatch of work, at least 50.
	calls := 50
	var lat, fold []float64
	for round := 0; round < 2; round++ {
		starts := make([][]time.Time, ranks)
		ends := make([][]time.Time, ranks)
		foldPer := make([][]int64, ranks)
		for r := range starts {
			starts[r] = make([]time.Time, calls)
			ends[r] = make([]time.Time, calls)
			foldPer[r] = make([]int64, calls)
		}
		err := w.Run(worldWatchdog, func(c *mpi.Comm) error {
			r := c.Rank()
			for k := 0; k < calls; k++ {
				f0 := foldNs[r]
				starts[r][k] = time.Now()
				if err := c.AllreduceAlgo(mpi.AlgoAuto, bufs[r], bufs[r], n, mpi.Int64, folds[r]); err != nil {
					return err
				}
				ends[r][k] = time.Now()
				foldPer[r][k] = foldNs[r] - f0
			}
			return nil
		})
		if err != nil {
			return 0, 0, fmt.Errorf("plain allreduce probe: %w", err)
		}
		lat, fold = lat[:0], fold[:0]
		var total time.Duration
		for k := 0; k < calls; k++ {
			s, e := starts[0][k], ends[0][k]
			var f int64
			for r := 0; r < ranks; r++ {
				if starts[r][k].Before(s) {
					s = starts[r][k]
				}
				if ends[r][k].After(e) {
					e = ends[r][k]
				}
				f = max(f, foldPer[r][k])
			}
			lat = append(lat, float64(e.Sub(s))/1e3)
			fold = append(fold, float64(f)/1e3)
			total += e.Sub(s)
		}
		// The first round calibrates the call count for the second.
		target := probeRounds * probeBatch
		calls = max(50, int(float64(calls)*float64(target)/float64(max(total, 1))))
	}
	return median(lat), median(fold), nil
}

// probeHoMAC times Vector.Tag and Vector.Verify on one lane of elems
// 64-bit ciphertexts, per element, and counts the heap allocations of one
// Tag plus one Verify per element.
func probeHoMAC(elems int, z uint64) (tagNs, verifyNs, allocs float64, err error) {
	v, err := hear.NewVerifier(z)
	if err != nil {
		return 0, 0, 0, err
	}
	st, err := probeStates()
	if err != nil {
		return 0, 0, 0, err
	}
	for _, s := range st {
		s.Advance()
	}
	cipher := make([][]uint64, ranks)
	tags := make([][]uint64, ranks)
	sumC := make([]uint64, elems)
	sumT := make([]uint64, elems)
	for r := range cipher {
		cipher[r] = make([]uint64, elems)
		tags[r] = make([]uint64, elems)
		for j := range cipher[r] {
			cipher[r][j] = uint64(j)*0x9e3779b97f4a7c15 + uint64(r)
			sumC[j] += cipher[r][j]
		}
		if err := v.Tag(st[r], cipher[r], tags[r]); err != nil {
			return 0, 0, 0, err
		}
	}
	copy(sumT, tags[0])
	for r := 1; r < ranks; r++ {
		v.Aggregate(sumT, tags[r])
	}
	var tagErr error
	tag := func() {
		if err := v.Tag(st[0], cipher[0], tags[0]); err != nil {
			tagErr = err
		}
	}
	bad := -1
	verify := func() { bad = v.Verify(st[0], sumC, sumT, ranks) }
	tagNs = timeBatches(tag) / float64(elems)
	verifyNs = timeBatches(verify) / float64(elems)
	if tagErr != nil {
		return 0, 0, 0, tagErr
	}
	if bad >= 0 {
		return 0, 0, 0, fmt.Errorf("homac probe: verification failed at element %d", bad)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m0 := ms.Mallocs
	tag()
	verify()
	runtime.ReadMemStats(&ms)
	allocs = float64(ms.Mallocs-m0) / float64(elems)
	return tagNs, verifyNs, allocs, nil
}
