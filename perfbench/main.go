// Command perfbench is the repository benchmark: four closed-loop
// workloads over HEAR's public API — small and bulk encrypted Allreduce
// between two in-process ranks, and verified gateway rounds through a flat
// and a two-tier (federated) aggregation gateway on loopback TCP. Every op
// is checked against a plaintext reference the benchmark computes itself.
//
//	perfbench --workload allreduce-small --seed 1 --seconds 10 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs an untraced and
// a traced phase back to back, runs the isolated layer probes, and prints
// the per-layer metrics. The last line of standard output is always one
// JSON object {"correct", "attempted", "failed", "metrics"}; the line
// before it is the environment stamp. --repeat N runs the benchmark N
// times as child processes (seeds seed..seed+N−1) and prints the median,
// quartiles and sample count of every metric instead. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runConfig is one benchmark run's parameters.
type runConfig struct {
	workload string
	seed     uint64
	measure  time.Duration // measured time; split into two phases when tracing
	trace    bool
	// minOps is the fewest ops a timed phase completes, whatever its
	// duration: 100 leaves ten samples beyond the reported p90.
	minOps int
	// setupReps is the fewest times the environment is built; cheap
	// set-ups repeat until setupBudget is spent. setup_s is the median.
	setupReps   int
	setupBudget time.Duration
	// warmup runs untimed ops before measuring so caches fill and lazy
	// set-up finishes.
	warmup time.Duration
	// spansOut, when set, receives the traced phase's spans as JSON lines.
	spansOut string
}

func main() {
	workload := flag.String("workload", "", "workload name: "+workloadNames())
	seed := flag.Uint64("seed", 1, "input seed; equal seeds give equal inputs")
	seconds := flag.Int("seconds", 10, "measured seconds per run")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	repeat := flag.Int("repeat", 0, "run the benchmark this many times as child processes and summarize")
	spans := flag.String("spans", "", "with --trace 1, write the traced phase's spans to this file as JSON lines")
	flag.Parse()

	if _, ok := workloads[*workload]; !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s)\n", *workload, workloadNames())
		os.Exit(2)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be ≥ 1 and --trace 0 or 1")
		os.Exit(2)
	}
	if *repeat > 0 {
		if err := repeatRuns(*repeat, *workload, *seed, *seconds, *trace); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	cfg := runConfig{
		workload:    *workload,
		seed:        *seed,
		measure:     time.Duration(*seconds) * time.Second,
		trace:       *trace == 1,
		minOps:      100,
		setupReps:   7,
		setupBudget: time.Second,
		warmup:      500 * time.Millisecond,
		spansOut:    *spans,
	}
	res, err := run(cfg)
	fmt.Println("# env", stampJSON(cfg.seed))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	if err != nil || !res.Correct || res.Failed > 0 {
		// A wrong or failed op is a failed benchmark: no result line.
		fmt.Fprintf(os.Stderr, "perfbench: %s: %d of %d ops failed\n", cfg.workload, res.Failed, res.Attempted)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
