package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0 ≤ p ≤ 100) of samples by
// linear interpolation between closest ranks (the "R-7" definition NumPy
// uses by default). samples need not be sorted; it is not modified.
func percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0]
	}
	h := (float64(len(s)) - 1) * p / 100
	lo := math.Floor(h)
	i := int(lo)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (h-lo)*(s[i+1]-s[i])
}

// beyond reports how many samples lie strictly above the p-th percentile:
// a percentile is only reported when at least ten samples lie beyond it.
func beyond(samples []float64, p float64) int {
	v := percentile(samples, p)
	n := 0
	for _, x := range samples {
		if x > v {
			n++
		}
	}
	return n
}

// quartiles returns the first quartile, median and third quartile of
// values exactly as Python's statistics.quantiles(values, n=4) computes
// them (its default "exclusive" method, including its clamping of the cut
// index to [1, n−1] and the linear extrapolation that clamping implies for
// very short inputs). This is the spread the repeat harness reports and
// the one checked against the bounds in BENCHMARK.json.
func quartiles(values []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// median of values (the mean of the middle pair for even counts).
func median(values []float64) float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// maxSegments is how many consecutive segments a run's latency samples
// are cut into for segmentMedian.
const maxSegments = 9

// segments is the number of equal segments n samples are cut into: at
// most maxSegments, each with at least minPer samples (and at least one).
func segments(n, minPer int) int {
	return max(1, min(maxSegments, n/max(minPer, 1)))
}

// segmentMedian cuts samples (in the order they were taken) into
// segments(len(samples), minPer) equal consecutive segments and returns
// the median over segments of each segment's p-th percentile. A burst of
// load on the host that slows one segment does not move it, while every
// segment keeps enough samples that ten lie beyond its p90.
func segmentMedian(samples []float64, minPer int, p float64) float64 {
	k := segments(len(samples), minPer)
	per := make([]float64, k)
	for i := range per {
		per[i] = percentile(samples[i*len(samples)/k:(i+1)*len(samples)/k], p)
	}
	return median(per)
}

// otsuSplit returns the threshold that splits values into two groups with
// the largest between-group variance (Otsu's method): every value ≤ the
// threshold is in the low group. With fewer than two distinct values it
// returns the largest value, leaving the high group empty.
func otsuSplit(values []float64) float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	var total float64
	for _, v := range s {
		total += v
	}
	best, cut := -1.0, s[n-1]
	var low float64
	for i := 0; i < n-1; i++ {
		low += s[i]
		if s[i] == s[i+1] {
			continue
		}
		nl, nh := float64(i+1), float64(n-i-1)
		d := low/nl - (total-low)/nh
		if between := nl * nh * d * d; between > best {
			best, cut = between, s[i]
		}
	}
	return cut
}
