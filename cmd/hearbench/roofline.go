package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"hear/internal/core"
	"hear/internal/keys"
	"hear/internal/prf"
)

// rooflineExp profiles the fused single-pass kernel against
// materialize-then-combine across working-set sizes that walk down the
// cache hierarchy: ns/element for an int64-sum encrypt on the AES-NI and
// software-ChaCha20 backends. Both columns run the same kernel body; they
// differ only in the noise source. "fused" streams keystream block by
// block from the backend. "two-pass" wraps the backend in planePRF, so
// the kernel first fills the whole keystream plane into pooled scratch
// with one Keystream call and then combines from it. Past L2 that streams
// ~4 buffers through DRAM where the fused loop streams 2 plus an
// L1-resident staging block, so the gap between the columns is the cost of
// plane materialization — the memory-bandwidth roofline fusion buys back.
// Emits BENCH_roofline.json.

type rooflineRow struct {
	Backend string `json:"backend"`
	WSBytes int    `json:"ws_bytes"`
	Elems   int    `json:"elems"`
	Iters   int    `json:"iters"`
	// ns per element, encrypt direction (decrypt shares the same kernel
	// structure; one direction keeps the sweep fast enough for CI).
	FusedNsElem float64 `json:"fused_ns_elem"`
	// TwoPassNsElem runs the same kernel on a planePRF noise source.
	TwoPassNsElem float64 `json:"twopass_ns_elem"`
	// Speedup = twopass / fused; > 1 means streaming wins.
	Speedup float64 `json:"speedup"`
}

type rooflineReport struct {
	Experiment string        `json:"experiment"`
	Scheme     string        `json:"scheme"`
	Rows       []rooflineRow `json:"rows"`
	// LargestWSSpeedup maps backend → speedup on the largest working set
	// (the DRAM-resident regime where fusion matters most).
	LargestWSSpeedup map[string]float64 `json:"largest_ws_speedup"`
}

// planePRF is the roofline's materialize-then-combine noise source. It
// reports every span as cached (prf.SpanCache), so the kernel copies the
// whole span into pooled scratch through the wrapped backend's bulk
// Keystream before combining, and streams only a sub-block tail from
// Generator. The bytes are the backend's, unchanged.
type planePRF struct{ prf.PRF }

func (p planePRF) CachedSpan(_, _ uint64, n int) int { return n }
func (p planePRF) Generator() prf.PRF                { return p.PRF }

// rooflinePass times iters EncryptAt calls over an n-element buffer and
// returns ns/element.
func rooflinePass(s core.Scheme, st *keys.RankState, plain, cipher []byte, n, iters int) (float64, error) {
	// Warmup: fault the buffers and fill the scratch/stream pools.
	if err := s.EncryptAt(st, plain, cipher, n, 0); err != nil {
		return 0, err
	}
	t0 := time.Now()
	for i := 0; i < iters; i++ {
		if err := s.EncryptAt(st, plain, cipher, n, 0); err != nil {
			return 0, err
		}
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(iters) / float64(n), nil
}

func rooflineExp() error {
	scheme, err := core.NewIntSum(64)
	if err != nil {
		return err
	}
	// 16 KiB sits in L1, 256 KiB in L2; 1–16 MiB spill to L3/DRAM where
	// the plane round-trip starts paying memory bandwidth twice.
	sizes := []int{16 << 10, 64 << 10, 256 << 10, 1 << 20, 4 << 20, 16 << 20}
	const sweepBytes = 1 << 28 // per (backend, size, variant) measurement
	minIters := 3
	if *quick {
		sizes = []int{16 << 10, 1 << 20, 4 << 20}
		minIters = 1
	}

	report := rooflineReport{
		Experiment:       "roofline",
		Scheme:           scheme.Name(),
		LargestWSSpeedup: map[string]float64{},
	}

	fmt.Println("roofline: int64-sum encrypt ns/elem, streamed noise vs materialized plane, one kernel")
	fmt.Printf("%-16s %10s %12s %12s %8s\n", "backend", "ws", "fused", "two-pass", "speedup")
	for _, backend := range []string{prf.BackendAESFast, prf.BackendChaCha20} {
		states, err := benchStates(backend, 2)
		if err != nil {
			return err
		}
		st := states[0]
		st.Advance()
		plane := *st
		plane.Enc = planePRF{st.Enc}
		for _, ws := range sizes {
			n := ws / scheme.PlainSize()
			iters := sweepBytes / ws
			if *quick {
				iters /= 64
			}
			if iters < minIters {
				iters = minIters
			}
			plain := make([]byte, n*scheme.PlainSize())
			for i := range plain {
				plain[i] = byte(i*31 + 7)
			}
			cipher := make([]byte, n*scheme.CipherSize())
			row := rooflineRow{Backend: backend, WSBytes: ws, Elems: n, Iters: iters}

			if row.FusedNsElem, err = rooflinePass(scheme, st, plain, cipher, n, iters); err != nil {
				return err
			}
			fused := append([]byte(nil), cipher...)
			if row.TwoPassNsElem, err = rooflinePass(scheme, &plane, plain, cipher, n, iters); err != nil {
				return err
			}
			if !bytes.Equal(cipher, fused) {
				return fmt.Errorf("roofline: %s ws=%s: plane-fed ciphertext differs from streamed", backend, fmtBytes(ws))
			}

			row.Speedup = row.TwoPassNsElem / row.FusedNsElem
			report.Rows = append(report.Rows, row)
			if ws == sizes[len(sizes)-1] {
				report.LargestWSSpeedup[backend] = row.Speedup
			}
			fmt.Printf("%-16s %10s %10.2fns %10.2fns %7.2fx\n",
				backend, fmtBytes(ws), row.FusedNsElem, row.TwoPassNsElem, row.Speedup)
		}
	}

	f, err := os.Create("BENCH_roofline.json")
	if err != nil {
		return err
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(report); err != nil {
		return err
	}
	fmt.Println("wrote BENCH_roofline.json")
	return nil
}
