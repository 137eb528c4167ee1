package main

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// env is one built workload environment: ranks or gateway clients ready
// to run ops back to back.
type env interface {
	// phase runs ops until p.more reports false, recording one latency
	// sample per op (and spans when p.rec is set). Every op's result is
	// checked outside its timed interval; a wrong result counts as failed.
	phase(p *phase) error
	// layers computes the per-layer metrics from an untraced and a traced
	// phase run back to back and the isolated probes.
	layers(un, tr *phase, pr probeResult) (map[string]float64, error)
	// elems is the int64 element count of one op's message.
	elems() int
	// counters snapshots the library's counters ("name{labels}" → value);
	// empty unless the environment was built traced.
	counters() map[string]float64
	close()
}

// workload describes one benchmark workload.
type workload struct {
	why string
	// prepare generates the workload's inputs from the seed, outside any
	// timed interval, and returns the environment factory.
	prepare func(seed uint64) factory
}

// factory builds an environment over prepared inputs and completes its
// first op; traced environments also publish the library's counters.
type factory func(traced bool) (env, error)

var workloads = map[string]workload{
	"allreduce-small": {
		why:     "2 ranks, 16 B int64-sum AllreduceRaw on the host sync path: per-call fixed costs",
		prepare: func(seed uint64) factory { return allreduceFactory(seed, 2) },
	},
	"allreduce-bulk": {
		why:     "2 ranks, 4 MiB int64-sum AllreduceRaw pipelined in 256 KiB blocks: keystream, kernels, sharding",
		prepare: func(seed uint64) factory { return allreduceFactory(seed, bulkElems) },
	},
	"gateway-flat": {
		why:     "2 clients, verified 64 Ki-element rounds through one loopback gateway: round protocol and client crypto",
		prepare: func(seed uint64) factory { return gatewayFactory(seed, false) },
	},
	"gateway-2tier": {
		why:     "the same rounds through a 2-cohort leaf gateway federated into a root: the relay and the tier",
		prepare: func(seed uint64) factory { return gatewayFactory(seed, true) },
	},
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// metricDef is a reported metric's name, unit and better direction, as
// listed in BENCHMARK.json.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics of a --trace 0 run.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"latency_p50_us", "us", "lower"},
	{"latency_p90_us", "us", "lower"},
	{"cpu_us_per_op", "us", "lower"},
	{"alloc_bytes_per_op", "bytes", "lower"},
}

// perLayer are the metrics of a --trace 1 run. A layer that is not on a
// workload's path reads 0 there (see README.md for the table of which
// layer should move which end-to-end metric on which workload).
var perLayer = []metricDef{
	{"hear.call_self_us", "us", "lower"},
	{"hear.overhead_pct", "%", "lower"},
	{"hear.seal_us", "us", "lower"},
	{"hear.verify_us", "us", "lower"},
	{"hear.open_us", "us", "lower"},
	{"keys.advance_ns", "ns", "lower"},
	{"prf.keystream_ns_per_kib", "ns/KiB", "lower"},
	{"core.encrypt_us", "us", "lower"},
	{"core.decrypt_us", "us", "lower"},
	{"core.reduce_us", "us", "lower"},
	{"engine.shards_per_op", "count", "higher"},
	{"engine.shard_busy_us", "us", "lower"},
	{"engine.parallel_efficiency", "ratio", "higher"},
	{"mempool.hit_ratio", "ratio", "higher"},
	{"mempool.waits_per_op", "count", "lower"},
	{"mpi.plain_allreduce_us", "us", "lower"},
	{"homac.tag_ns_per_elem", "ns", "lower"},
	{"homac.verify_ns_per_elem", "ns", "lower"},
	{"homac.allocs_per_elem", "count", "lower"},
	{"aggsvc.recv_us", "us", "lower"},
	{"aggsvc.fold_us", "us", "lower"},
	{"aggsvc.wait_us", "us", "lower"},
	{"aggsvc.send_us", "us", "lower"},
	{"aggsvc.client_write_us", "us", "lower"},
	{"aggsvc.client_read_wait_us", "us", "lower"},
	{"aggsvc.bytes_in_per_round", "bytes", "lower"},
	{"aggsvc.bytes_out_per_round", "bytes", "lower"},
	{"federation.negotiate_us", "us", "lower"},
	{"federation.relay_us", "us", "lower"},
	{"runtime.mallocs_per_op", "count", "lower"},
	{"runtime.gc_per_kop", "count", "lower"},
	{"bench.trace_overhead_pct", "%", "lower"},
	{"bench.unattributed_pct", "%", "lower"},
	{"error_rate", "ratio", "lower"},
}

// phase is one stretch of back-to-back ops and what it measured.
type phase struct {
	dur    time.Duration
	minOps int
	rec    *recorder // nil: untraced

	start   time.Time
	win     window    // the window being filled
	wins    []window  // completed windows
	lat     []float64 // per-op latency, µs
	opNs    int64     // sum of op intervals
	ops     int       // completed ops, correct or not
	failed  int       // ops that errored or returned a wrong result
	elapsed time.Duration

	allocB, mallocs uint64
	gcs             uint32
	metricsBefore   map[string]float64 // library counters at phase start
	metricsAfter    map[string]float64
}

// more reports whether the phase should start another op.
func (p *phase) more() bool {
	if p.failed > 0 {
		return false
	}
	if p.rec != nil && p.rec.full() {
		return false
	}
	return time.Since(p.start) < p.dur || p.ops < p.minOps
}

// record adds one op that ran over [start, end].
func (p *phase) record(start, end time.Time) {
	d := end.Sub(start)
	p.opNs += int64(d)
	p.lat = append(p.lat, float64(d)/1e3)
	p.ops++
	p.win.ops++
	p.win.opNs += int64(d)
}

// window is a stretch of whole batches lasting at least windowLen.
// Rates are reported as the median over windows, so a stall or a
// collection cycle in one window does not move them.
type window struct {
	ops   int
	opNs  int64
	cpuS  float64
	start time.Time
	cpu0  float64
}

const windowLen = 200 * time.Millisecond

// batchDone closes the current window once it is long enough; the
// environments call it between batches of ops.
func (p *phase) batchDone() {
	if time.Since(p.win.start) < windowLen {
		return
	}
	cpu := cpuSeconds()
	p.win.cpuS = cpu - p.win.cpu0
	p.wins = append(p.wins, p.win)
	p.win = window{start: time.Now(), cpu0: cpu}
}

// windowMedian is the median over completed windows of f.
func (p *phase) windowMedian(f func(w window) float64) float64 {
	v := make([]float64, 0, len(p.wins))
	for _, w := range p.wins {
		if w.ops > 0 {
			v = append(v, f(w))
		}
	}
	return median(v)
}

// delta returns the change of a library counter over the phase.
func (p *phase) delta(key string) float64 { return p.metricsAfter[key] - p.metricsBefore[key] }

// deltaSum sums delta over every counter whose "name{labels}" key starts
// with prefix and ends with suffix.
func (p *phase) deltaSum(prefix, suffix string) float64 {
	var s float64
	for k, v := range p.metricsAfter {
		if strings.HasPrefix(k, prefix) && strings.HasSuffix(k, suffix) {
			s += v - p.metricsBefore[k]
		}
	}
	return s
}

// perOp divides x by the phase's op count.
func (p *phase) perOp(x float64) float64 {
	if p.ops == 0 {
		return 0
	}
	return x / float64(p.ops)
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	sec := func(tv syscall.Timeval) float64 { return float64(tv.Sec) + float64(tv.Usec)/1e6 }
	return sec(ru.Utime) + sec(ru.Stime)
}

// measure runs one phase of e with process resource accounting around it.
// latCap preallocates the latency slice so appends do not allocate inside
// the measured interval.
func measure(e env, p *phase, latCap int) error {
	p.lat = make([]float64, 0, latCap)
	var ms runtime.MemStats
	runtime.GC()
	p.metricsBefore = e.counters()
	runtime.ReadMemStats(&ms)
	alloc0, mallocs0, gc0 := ms.TotalAlloc, ms.Mallocs, ms.NumGC
	p.start = time.Now()
	p.win = window{start: p.start, cpu0: cpuSeconds()}
	err := e.phase(p)
	p.elapsed = time.Since(p.start)
	runtime.ReadMemStats(&ms)
	p.allocB, p.mallocs, p.gcs = ms.TotalAlloc-alloc0, ms.Mallocs-mallocs0, ms.NumGC-gc0
	p.metricsAfter = e.counters()
	return err
}

func run(cfg runConfig) (result, error) {
	res := result{Metrics: map[string]metric{}}
	w := workloads[cfg.workload]
	reps := cfg.setupReps
	if cfg.trace {
		reps = 1 // the traced run reports no setup time
	}
	build := w.prepare(cfg.seed)
	// Cheap set-ups repeat until setupBudget is spent, so their median
	// rests on more samples.
	var setups []float64
	var e env
	var spent time.Duration
	for i := 0; ; i++ {
		t0 := time.Now()
		ee, err := build(cfg.trace)
		if err != nil {
			return res, fmt.Errorf("%s setup: %w", cfg.workload, err)
		}
		d := time.Since(t0)
		setups = append(setups, d.Seconds())
		spent += d
		res.Attempted++ // the setup's first op
		if i+1 >= reps && (cfg.trace || spent >= cfg.setupBudget || i+1 >= maxSetupReps) {
			e = ee
			break
		}
		ee.close()
	}
	defer e.close()

	// Untimed warm-up; its rate sizes the latency buffers of the timed
	// phases.
	warm := &phase{dur: cfg.warmup, minOps: 1}
	err := measure(e, warm, 1<<16)
	res.Attempted += warm.ops
	res.Failed += warm.failed
	if err != nil || warm.failed > 0 {
		return res, fmt.Errorf("%s warm-up: %v", cfg.workload, err)
	}
	rate := float64(warm.ops) / warm.elapsed.Seconds()
	latCap := int(rate*cfg.measure.Seconds()*1.5) + cfg.minOps

	timed := func(p *phase) error {
		err := measure(e, p, latCap)
		res.Attempted += p.ops
		res.Failed += p.failed
		if err == nil && p.failed > 0 {
			err = fmt.Errorf("%d wrong results", p.failed)
		}
		return err
	}

	if !cfg.trace {
		p := &phase{dur: cfg.measure, minOps: cfg.minOps}
		if err := timed(p); err != nil {
			return res, fmt.Errorf("%s: %w", cfg.workload, err)
		}
		if n := beyond(p.lat, 90); n < 10 {
			return res, fmt.Errorf("%s: only %d samples beyond p90 (need 10)", cfg.workload, n)
		}
		m := map[string]float64{
			"setup_s":            median(setups),
			"ops_per_s":          p.windowMedian(func(w window) float64 { return float64(w.ops) / (float64(w.opNs) / 1e9) }),
			"latency_p50_us":     segmentMedian(p.lat, cfg.minOps, 50),
			"latency_p90_us":     segmentMedian(p.lat, cfg.minOps, 90),
			"cpu_us_per_op":      p.windowMedian(func(w window) float64 { return w.cpuS * 1e6 / float64(w.ops) }),
			"alloc_bytes_per_op": p.perOp(float64(p.allocB)),
		}
		fmt.Printf("# samples ops=%d latency_samples=%d beyond_p90=%d segments=%d windows=%d setups=%d elapsed_s=%.3f\n",
			p.ops, len(p.lat), beyond(p.lat, 90), segments(len(p.lat), cfg.minOps), len(p.wins), len(setups), p.elapsed.Seconds())
		fmt.Printf("# latency_us p10=%.1f p25=%.1f p50=%.1f p75=%.1f p90=%.1f p99=%.1f\n",
			percentile(p.lat, 10), percentile(p.lat, 25), percentile(p.lat, 50),
			percentile(p.lat, 75), percentile(p.lat, 90), percentile(p.lat, 99))
		if r, ok := e.(interface{ reportModes(*phase) }); ok {
			r.reportModes(p)
		}
		if err := fill(&res, endToEnd, m); err != nil {
			return res, err
		}
	} else {
		// The traced run reports medians only, so its phases need fewer ops.
		un := &phase{dur: cfg.measure / 2, minOps: cfg.minOps / 5}
		if err := timed(un); err != nil {
			return res, fmt.Errorf("%s untraced phase: %w", cfg.workload, err)
		}
		tr := &phase{dur: cfg.measure / 2, minOps: cfg.minOps / 5, rec: newRecorder(spanCapacity)}
		if err := timed(tr); err != nil {
			return res, fmt.Errorf("%s traced phase: %w", cfg.workload, err)
		}
		if d := tr.rec.dropped.Load(); d > 0 {
			return res, fmt.Errorf("%s: recorder dropped %d spans", cfg.workload, d)
		}
		pr, err := runProbes(e.elems(), cfg.seed>>4|1) // any non-zero HoMAC key

		if err != nil {
			return res, fmt.Errorf("%s probes: %w", cfg.workload, err)
		}
		m, err := e.layers(un, tr, pr)
		if err != nil {
			return res, fmt.Errorf("%s layers: %w", cfg.workload, err)
		}
		unP50, trP50 := percentile(un.lat, 50), percentile(tr.lat, 50)
		pr.fill(m, unP50)
		m["bench.trace_overhead_pct"] = 100 * (trP50 - unP50) / unP50
		m["runtime.mallocs_per_op"] = un.perOp(float64(un.mallocs))
		m["runtime.gc_per_kop"] = un.perOp(1000 * float64(un.gcs))
		fmt.Printf("# samples untraced_ops=%d traced_ops=%d spans=%d\n", un.ops, tr.ops, len(tr.rec.recorded()))
		if cfg.spansOut != "" {
			if err := writeSpans(cfg.spansOut, tr.rec.recorded()); err != nil {
				return res, err
			}
		}
		if err := fill(&res, perLayer, m); err != nil {
			return res, err
		}
	}
	if res.Attempted > 0 {
		res.Correct = res.Failed == 0
	}
	if cfg.trace {
		res.Metrics["error_rate"] = metric{Value: float64(res.Failed) / float64(res.Attempted), Unit: "ratio"}
	}
	return res, nil
}

// spanCapacity bounds the traced phase's in-memory spans (about 60 MB);
// a workload whose ops emit many spans stops tracing early instead of
// growing without bound.
const spanCapacity = 1 << 20

// maxSetupReps caps the set-up repetitions of runConfig.setupBudget.
const maxSetupReps = 50

// fill copies m into res under defs' names and units. A def absent from
// m is a layer not on the workload's path and reads 0; a key of m that no
// def names is a bug.
func fill(res *result, defs []metricDef, m map[string]float64) error {
	known := make(map[string]bool, len(defs))
	for _, d := range defs {
		known[d.name] = true
		res.Metrics[d.name] = metric{Value: m[d.name], Unit: d.unit}
	}
	for k := range m {
		if !known[k] {
			return fmt.Errorf("unlisted metric %q", k)
		}
	}
	return nil
}
