package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPercentile(t *testing.T) {
	ten := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	for _, tc := range []struct {
		samples []float64
		p, want float64
	}{
		{ten, 0, 1},
		{ten, 50, 5.5},
		{ten, 90, 9.1},
		{ten, 100, 10},
		{[]float64{3, 1, 2, 10}, 90, 7.9},
		{[]float64{42}, 90, 42},
	} {
		if got := percentile(tc.samples, tc.p); !near(got, tc.want) {
			t.Errorf("percentile(%v, %v) = %v, want %v", tc.samples, tc.p, got, tc.want)
		}
	}
	if ten[0] != 10 {
		t.Error("percentile reordered its input")
	}
	if got := beyond(ten, 90); got != 1 {
		t.Errorf("beyond(1..10, 90) = %d, want 1", got)
	}
}

// TestQuartilesMatchPython pins quartiles to the values Python's
// statistics.quantiles(data, n=4) prints for the same data.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		data []float64
		want [3]float64
	}{
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{5, 1, 4, 2, 3, 9, 7}, [3]float64{2, 4, 7}},
		{[]float64{0.5, 0.25, 10, 3}, [3]float64{0.3125, 1.75, 8.25}},
	} {
		q1, med, q3 := quartiles(tc.data)
		if got := [3]float64{q1, med, q3}; !near(got[0], tc.want[0]) || !near(got[1], tc.want[1]) || !near(got[2], tc.want[2]) {
			t.Errorf("quartiles(%v) = %v, want %v", tc.data, got, tc.want)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{4, 1, 3}); got != 3 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing is not NaN")
	}
}

func TestSegmentMedian(t *testing.T) {
	// Five segments of 100 samples; the third is a burst 10× slower.
	var samples []float64
	for seg := 0; seg < 5; seg++ {
		for i := 1; i <= 100; i++ {
			v := float64(i)
			if seg == 2 {
				v *= 10
			}
			samples = append(samples, v)
		}
	}
	if got := segmentMedian(samples, 100, 90); !near(got, 90.1) {
		t.Errorf("segmentMedian p90 = %v, want 90.1 (the burst segment ignored)", got)
	}
	if got := segments(len(samples), 100); got != 5 {
		t.Errorf("segments(500, 100) = %d", got)
	}
	for _, tc := range []struct{ n, per, want int }{{99, 100, 1}, {250, 100, 2}, {5000, 100, maxSegments}, {3, 0, 3}} {
		if got := segments(tc.n, tc.per); got != tc.want {
			t.Errorf("segments(%d, %d) = %d, want %d", tc.n, tc.per, got, tc.want)
		}
	}
	if got := segmentMedian([]float64{3, 1, 2}, 100, 50); got != 2 {
		t.Errorf("one-segment median = %v", got)
	}
}

func TestOtsuSplit(t *testing.T) {
	for _, tc := range []struct {
		values []float64
		want   float64
	}{
		// Two clusters: the cut is the top of the low one.
		{[]float64{7.8, 4.9, 5.0, 7.7, 4.8, 7.9, 8.0}, 5.0},
		{[]float64{1, 1, 1, 10}, 1},
		// One distinct value: everything is in the low group.
		{[]float64{3, 3, 3}, 3},
		{[]float64{2}, 2},
	} {
		if got := otsuSplit(tc.values); got != tc.want {
			t.Errorf("otsuSplit(%v) = %v, want %v", tc.values, got, tc.want)
		}
	}
}
