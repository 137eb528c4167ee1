package main

import (
	"fmt"
	"math/rand/v2"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"hear"
	"hear/internal/aggsvc"
	"hear/internal/aggsvc/federation"
	"hear/internal/metrics"
	"hear/internal/mpi"
)

const (
	gatewayElems   = 64 << 10 // int64 elements per verified round (512 KiB lane)
	clients        = 2
	clientTimeout  = 30 * time.Second
	gatewayBatchOp = 5 // rounds per client goroutine batch
)

// gatewayEnv is an in-process aggregation gateway on loopback TCP with
// two verified (HoMAC-tagged) int64-sum clients, one connection each.
// With tiers, the clients reach a leaf gateway of two one-client cohorts
// that federates into a root gateway, also over loopback.
type gatewayEnv struct {
	*gatewayInputs
	servers []*aggsvc.Server
	serving sync.WaitGroup
	regs    []*metrics.Registry // one per gateway tier (nil unless traced)
	ctxReg  *metrics.Registry   // the ranks' registry (nil unless traced)

	ctxs    []*hear.Context
	sealers []*hear.GatewaySealer
	conns   []net.Conn
	clients []*aggsvc.Client

	outs [][]int64 // [client]

	starts, ends [][]time.Time // [client][op in batch]
	bad          [][]bool
	batch        int     // rounds per client goroutine batch
	errs         []error // [client] error of the current batch

	tracers       []*rankTracer
	tracedClients []*aggsvc.Client
	traceRec      *recorder
}

// gatewayInputs are one seed's client vectors and HoMAC key.
type gatewayInputs struct {
	z      uint64      // verification key
	inputs [][][]int64 // [variant][client]
	want   [][]int64   // [variant] wrapping sum over clients
}

func gatewayFactory(seed uint64, tiers bool) factory {
	rng := rand.New(rand.NewPCG(seed, 0x6a7e3a1))
	in := &gatewayInputs{z: rng.Uint64()>>4 | 1} // non-zero mod the 61-bit HoMAC prime
	for v := 0; v < inputVariants; v++ {
		per := make([][]int64, clients)
		want := make([]int64, gatewayElems)
		for c := range per {
			per[c] = make([]int64, gatewayElems)
			for j := range per[c] {
				x := int64(rng.Uint64())
				per[c][j] = x
				want[j] += x // wrapping, like the scheme
			}
		}
		in.inputs = append(in.inputs, per)
		in.want = append(in.want, want)
	}
	return func(traced bool) (env, error) { return newGatewayEnv(in, tiers, traced) }
}

func newGatewayEnv(in *gatewayInputs, tiers, traced bool) (_ *gatewayEnv, err error) {
	e := &gatewayEnv{gatewayInputs: in}
	defer func() {
		if err != nil {
			e.close()
		}
	}()
	newReg := func() *metrics.Registry {
		if !traced {
			return nil
		}
		r := metrics.New()
		e.regs = append(e.regs, r)
		return r
	}
	serve := func(cfg aggsvc.Config) (string, error) {
		s, err := aggsvc.NewServer(cfg)
		if err != nil {
			return "", err
		}
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			s.Close()
			return "", err
		}
		e.servers = append(e.servers, s)
		e.serving.Add(1)
		go func() {
			defer e.serving.Done()
			s.Serve(l) // returns ErrServerClosed once close stops it
		}()
		return l.Addr().String(), nil
	}

	front, err := serve(aggsvc.Config{Group: clients, Metrics: newReg()})
	if err != nil {
		return nil, err
	}
	if tiers {
		reg := newReg()
		up, err := federation.New(federation.Config{Addr: front, Metrics: reg})
		if err != nil {
			return nil, err
		}
		var next atomic.Int64
		front, err = serve(aggsvc.Config{
			Group:    1,
			Cohorts:  clients,
			CohortBy: func(net.Addr) int { return int(next.Add(1)-1) % clients },
			Uplink:   up.Dialer(),
			Metrics:  reg,
		})
		if err != nil {
			return nil, err
		}
	}

	opts := hear.Options{PRFBackend: prfBackend}
	if traced {
		e.ctxReg = metrics.New()
		opts.Metrics = e.ctxReg
	}
	e.ctxs, err = hear.Init(mpi.NewWorld(clients), opts)
	if err != nil {
		return nil, err
	}
	verifier, err := hear.NewVerifier(e.z)
	if err != nil {
		return nil, err
	}
	for i := 0; i < clients; i++ {
		conn, err := net.Dial("tcp", front)
		if err != nil {
			return nil, err
		}
		e.conns = append(e.conns, conn)
		s := e.ctxs[i].NewGatewaySealer(verifier)
		e.sealers = append(e.sealers, s)
		e.clients = append(e.clients, aggsvc.NewClient(conn, s, aggsvc.ClientOptions{Timeout: clientTimeout}))
	}

	for c := 0; c < clients; c++ {
		e.outs = append(e.outs, make([]int64, gatewayElems))
		e.starts = append(e.starts, make([]time.Time, gatewayBatchOp))
		e.ends = append(e.ends, make([]time.Time, gatewayBatchOp))
		e.bad = append(e.bad, make([]bool, gatewayBatchOp))
		e.tracers = append(e.tracers, &rankTracer{part: int8(c)})
	}
	e.errs = make([]error, clients)

	// The first round completes the set-up.
	first := &phase{minOps: 1, start: time.Now()}
	e.batch = 1
	if err := e.phase(first); err != nil {
		return nil, err
	}
	if first.failed > 0 {
		return nil, fmt.Errorf("first round returned a wrong result")
	}
	e.batch = gatewayBatchOp
	return e, nil
}

// counters merges the ranks' and every gateway tier's registries; gateway
// series of different tiers share names, so they are summed.
func (e *gatewayEnv) counters() map[string]float64 {
	m := map[string]float64{}
	for _, r := range append(slices.Clone(e.regs), e.ctxReg) {
		for k, v := range r.Map() {
			m[k] += v
		}
	}
	return m
}

func (e *gatewayEnv) close() {
	for _, c := range e.clients {
		c.Close()
	}
	for _, s := range e.servers {
		s.Close()
	}
	e.serving.Wait()
}

// tracedClientsFor builds, once per recorder, a second client on each
// connection whose sealer and conn record spans. Rounds are
// self-contained HELLO…RESULT exchanges, so switching clients between
// rounds is invisible to the gateway.
func (e *gatewayEnv) tracedClientsFor(rec *recorder) []*aggsvc.Client {
	if e.traceRec != rec {
		e.traceRec = rec
		e.tracedClients = e.tracedClients[:0]
		for c := 0; c < clients; c++ {
			t := e.tracers[c]
			t.rec = rec
			e.tracedClients = append(e.tracedClients, aggsvc.NewClient(
				&tracedConn{Conn: e.conns[c], t: t},
				&tracedSealer{GatewaySealer: e.sealers[c], t: t},
				aggsvc.ClientOptions{Timeout: clientTimeout}))
		}
	}
	return e.tracedClients
}

// phase runs rounds in batches: both clients run gatewayBatchOp rounds in
// their own goroutines, closed loop. A round's latency runs from the
// first client calling Aggregate to the last one returning; each client
// checks its own result afterwards.
func (e *gatewayEnv) phase(p *phase) error {
	cl := e.clients
	if p.rec != nil {
		cl = e.tracedClientsFor(p.rec)
	}
	for p.more() {
		base, batch := p.ops, e.batch
		errs := e.errs
		clear(errs)
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				t := e.tracers[c]
				for k := 0; k < batch; k++ {
					v := (base + k) % inputVariants
					var span int32 = -1
					if p.rec != nil {
						t.op.Store(int32(base + k))
						span = p.rec.begin(spanOp, -1, int32(base+k), t.part)
						t.cur.Store(span)
					}
					e.starts[c][k] = time.Now()
					_, err := cl[c].Aggregate(e.inputs[v][c], e.outs[c])
					e.ends[c][k] = time.Now()
					if p.rec != nil {
						p.rec.end(span)
					}
					if err != nil {
						errs[c] = fmt.Errorf("client %d round %d: %w", c, base+k, err)
						return
					}
					e.bad[c][k] = !slices.Equal(e.outs[c], e.want[v])
				}
			}(c)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				p.failed++
				return err
			}
		}
		for k := 0; k < batch; k++ {
			start, end := e.starts[0][k], e.ends[0][k]
			wrong := false
			for c := 0; c < clients; c++ {
				if e.starts[c][k].Before(start) {
					start = e.starts[c][k]
				}
				if e.ends[c][k].After(end) {
					end = e.ends[c][k]
				}
				wrong = wrong || e.bad[c][k]
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

// layers derives the per-layer metrics of the gateway workloads.
func (e *gatewayEnv) elems() int { return gatewayElems }

func (e *gatewayEnv) layers(un, tr *phase, _ probeResult) (map[string]float64, error) {
	m := map[string]float64{}
	spans := tr.rec.recorded()
	sums := spanSums(spans)
	tops := float64(tr.ops)
	// Client-side spans are summed over both clients, per round.
	m["hear.seal_us"] = float64(sums[spanSeal]) / 1e3 / tops
	m["hear.verify_us"] = float64(sums[spanVerify]) / 1e3 / tops
	m["hear.open_us"] = float64(sums[spanOpen]) / 1e3 / tops
	m["aggsvc.client_write_us"] = float64(sums[spanClientWrite]) / 1e3 / tops
	m["aggsvc.client_read_wait_us"] = float64(sums[spanClientRead]) / 1e3 / tops

	var selfNs, opNs int64
	var selfs []float64
	for i, s := range selfTimes(spans) {
		selfNs += s
		opNs += spans[i].end - spans[i].start
		selfs = append(selfs, float64(s)/1e3)
	}
	m["hear.call_self_us"] = median(selfs)
	// Every client-side layer of a round has a span (the read-wait span
	// covers the gateway's own work), so what is left is client framing.
	m["bench.unattributed_pct"] = 100 * float64(selfNs) / float64(opNs)

	// Gateway phases, summed over handlers and tiers, per round.
	for _, ph := range []string{"recv", "fold", "wait", "send"} {
		m["aggsvc."+ph+"_us"] = tr.perOp(1e6 * tr.delta(`hear_gateway_phase_seconds_total{phase="`+ph+`"}`))
	}
	// Wire bytes per round must not depend on tracing: the wrappers
	// forward every optional interface, so negotiation is unchanged.
	for _, dir := range []string{"in", "out"} {
		key := "hear_gateway_bytes_" + dir + "_total"
		u, t := un.perOp(un.delta(key)), tr.perOp(tr.delta(key))
		if u != t {
			return nil, fmt.Errorf("bytes_%s per round differ: untraced %.1f, traced %.1f", dir, u, t)
		}
		m["aggsvc.bytes_"+dir+"_per_round"] = t
	}
	m["federation.negotiate_us"] = tr.perOp(1e6 * tr.deltaSum("hear_federation_negotiate_seconds", "_sum"))
	m["federation.relay_us"] = tr.perOp(1e6 * tr.deltaSum("hear_federation_relay_seconds", "_sum"))
	m["engine.shards_per_op"] = tr.perOp(tr.deltaSum("hear_engine_phase_ops_total", ""))
	m["engine.shard_busy_us"] = tr.perOp(1e6 * tr.deltaSum("hear_engine_phase_seconds_total", ""))
	return m, nil
}
