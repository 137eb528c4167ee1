package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync/atomic"
	"time"
)

// Span names. Each is a layer boundary the benchmark can wrap from
// outside the program through a public injection point.
const (
	spanOp          = "op"                      // one collective call or gateway round, per participant
	spanEncrypt     = "core.encrypt"            // core.Scheme EncryptAt (one per engine shard)
	spanDecrypt     = "core.decrypt"            // core.Scheme DecryptAt (one per engine shard)
	spanReduce      = "core.reduce"             // core.Scheme Reduce (one per shard or mpi fold call)
	spanSeal        = "hear.seal"               // aggsvc.Sealer Seal
	spanVerify      = "hear.verify"             // aggsvc.Sealer Verify
	spanOpen        = "hear.open"               // aggsvc.Sealer Open
	spanClientWrite = "aggsvc.client_write"     // net.Conn Write on a gateway client
	spanClientRead  = "aggsvc.client_read_wait" // net.Conn Read on a gateway client
)

// span is one recorded interval. Times are nanoseconds since the
// recorder's base; parent is the index of the enclosing op span (-1 for
// op spans themselves).
type span struct {
	name       string
	start, end int64
	parent     int32
	op         int32 // op index within the traced phase
	part       int8  // participant (rank or client) that owns the span
}

// recorder keeps spans in a preallocated in-memory slice; appends from
// concurrent goroutines (engine shards, mpi progress goroutines) claim a
// slot with one atomic add. When the slice is full further spans are
// dropped and counted, and full() tells the workload to stop tracing.
type recorder struct {
	base    time.Time
	spans   []span
	n       atomic.Int64
	dropped atomic.Int64
}

func newRecorder(capacity int) *recorder {
	return &recorder{base: time.Now(), spans: make([]span, capacity)}
}

func (r *recorder) now() int64 { return int64(time.Since(r.base)) }

// begin reserves a slot for a span that starts now and returns its index,
// or -1 when the recorder is full. end completes it.
func (r *recorder) begin(name string, parent, op int32, part int8) int32 {
	i := r.n.Add(1) - 1
	if i >= int64(len(r.spans)) {
		r.dropped.Add(1)
		return -1
	}
	r.spans[i] = span{name: name, start: r.now(), parent: parent, op: op, part: part}
	return int32(i)
}

func (r *recorder) end(i int32) {
	if i >= 0 {
		r.spans[i].end = r.now()
	}
}

// full reports whether the recorder has run out of slots.
func (r *recorder) full() bool { return r.n.Load() >= int64(len(r.spans))*9/10 }

// recorded returns the completed spans. Call it only after every traced
// goroutine has finished.
func (r *recorder) recorded() []span {
	n := r.n.Load()
	if n > int64(len(r.spans)) {
		n = int64(len(r.spans))
	}
	return r.spans[:n]
}

// interval is a closed-open time range [lo, hi).
type interval struct{ lo, hi int64 }

// unionLength returns the total length covered by ivs, clipped to
// [lo, hi). Overlapping intervals — engine shards running concurrently —
// are counted once, which is why self time subtracts the union of child
// spans rather than their sum.
func unionLength(ivs []interval, lo, hi int64) int64 {
	clipped := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		a, b := iv.lo, iv.hi
		if a < lo {
			a = lo
		}
		if b > hi {
			b = hi
		}
		if b > a {
			clipped = append(clipped, interval{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].lo < clipped[j].lo })
	var total int64
	curLo, curHi := int64(0), int64(-1)
	for _, iv := range clipped {
		if iv.lo > curHi {
			if curHi > curLo {
				total += curHi - curLo
			}
			curLo, curHi = iv.lo, iv.hi
			continue
		}
		if iv.hi > curHi {
			curHi = iv.hi
		}
	}
	if curHi > curLo {
		total += curHi - curLo
	}
	return total
}

// selfTimes returns, for every op span, its duration minus the union of
// its children's intervals, keyed by span index.
func selfTimes(spans []span) map[int32]int64 {
	children := make(map[int32][]interval)
	for _, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], interval{s.start, s.end})
		}
	}
	self := make(map[int32]int64)
	for i, s := range spans {
		if s.name != spanOp {
			continue
		}
		self[int32(i)] = (s.end - s.start) - unionLength(children[int32(i)], s.start, s.end)
	}
	return self
}

// spanSums adds up span durations per name.
func spanSums(spans []span) map[string]int64 {
	sums := make(map[string]int64)
	for _, s := range spans {
		sums[s.name] += s.end - s.start
	}
	return sums
}

// writeSpans dumps spans as JSON lines, one span per line.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i, s := range spans {
		rec := struct {
			ID     int    `json:"id"`
			Name   string `json:"name"`
			Start  int64  `json:"start_ns"`
			End    int64  `json:"end_ns"`
			Parent int32  `json:"parent"`
			Op     int32  `json:"op"`
			Part   int8   `json:"participant"`
		}{i, s.name, s.start, s.end, s.parent, s.op, s.part}
		if err := enc.Encode(rec); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}
