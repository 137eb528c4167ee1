package main

import (
	"sync"
	"testing"
)

func TestUnionLength(t *testing.T) {
	for _, tc := range []struct {
		name   string
		ivs    []interval
		lo, hi int64
		want   int64
	}{
		{"empty", nil, 0, 100, 0},
		{"disjoint", []interval{{10, 20}, {30, 35}}, 0, 100, 15},
		{"nested", []interval{{10, 50}, {20, 30}}, 0, 100, 40},
		{"overlapping", []interval{{10, 30}, {20, 40}, {35, 45}}, 0, 100, 35},
		{"touching", []interval{{10, 20}, {20, 30}}, 0, 100, 20},
		{"unsorted", []interval{{60, 70}, {10, 20}, {15, 25}}, 0, 100, 25},
		{"clipped", []interval{{0, 30}, {90, 120}}, 10, 100, 30},
		{"outside", []interval{{0, 5}, {200, 300}}, 10, 100, 0},
	} {
		if got := unionLength(tc.ivs, tc.lo, tc.hi); got != tc.want {
			t.Errorf("%s: unionLength = %d, want %d", tc.name, got, tc.want)
		}
	}
}

// TestSelfTimeOverlappingChildren: two engine shards running at once
// must be subtracted as their union, not their sum.
func TestSelfTimeOverlappingChildren(t *testing.T) {
	spans := []span{
		{name: spanOp, start: 0, end: 100, parent: -1},
		{name: spanEncrypt, start: 10, end: 50, parent: 0}, // shard 1
		{name: spanEncrypt, start: 20, end: 60, parent: 0}, // shard 2, concurrent
		{name: spanReduce, start: 70, end: 80, parent: 0},
		{name: spanOp, start: 200, end: 260, parent: -1},
		{name: spanDecrypt, start: 190, end: 210, parent: 4}, // starts before its op
	}
	self := selfTimes(spans)
	if got := self[0]; got != 100-50-10 {
		t.Errorf("op 0 self = %d, want 40 (sum of children would give %d)", got, 100-40-40-10)
	}
	if got := self[4]; got != 60-10 {
		t.Errorf("op 1 self = %d, want 50", got)
	}
	if len(self) != 2 {
		t.Errorf("self has %d entries, want one per op span", len(self))
	}
	sums := spanSums(spans)
	if sums[spanEncrypt] != 80 || sums[spanOp] != 160 {
		t.Errorf("spanSums = %v", sums)
	}
}

func TestRecorderConcurrentAndFull(t *testing.T) {
	r := newRecorder(100)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				r.end(r.begin(spanReduce, -1, int32(i), int8(g)))
			}
		}(g)
	}
	wg.Wait()
	if got := len(r.recorded()); got != 100 {
		t.Errorf("recorded %d spans, want capacity 100", got)
	}
	if got := r.dropped.Load(); got != 60 {
		t.Errorf("dropped %d spans, want 60", got)
	}
	if !r.full() {
		t.Error("recorder at capacity does not report full")
	}
	for i, s := range r.recorded() {
		if s.end < s.start {
			t.Errorf("span %d ends before it starts", i)
		}
	}
}
