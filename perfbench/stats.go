package main

import (
	"math"
	"sort"
	"time"
)

// tailPercentiles are the candidate tail percentiles, highest first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75, 50}

// minBeyond is how many samples must lie beyond a reported tail
// percentile for it to mean anything.
const minBeyond = 10

// Tail is a tail percentile of a latency sample: the highest candidate
// percentile with at least minBeyond samples beyond it.
type Tail struct {
	Pct   float64       // the percentile reported, e.g. 99
	Value time.Duration // its value
	N     int           // sample count
}

// tailOf returns the highest percentile of sorted with at least
// minBeyond samples beyond it. Pct is 0 when there are too few samples
// for even the median.
func tailOf(sorted []time.Duration) Tail {
	n := len(sorted)
	for _, p := range tailPercentiles {
		if n-rank(p, n) >= minBeyond {
			return Tail{Pct: p, Value: percentile(sorted, p), N: n}
		}
	}
	return Tail{N: n}
}

// rank is the 1-based nearest rank of the p-th percentile of n samples,
// computed in integer thousandths so that p=99.9 of 10000 is exactly
// 9990.
func rank(p float64, n int) int {
	r := (int(math.Round(p*10))*n + 999) / 1000
	return min(max(r, 1), n)
}

// percentile returns the p-th percentile (0..100) of sorted by the
// nearest-rank method, or 0 for an empty sample.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(p, len(sorted))-1]
}

// sortDurations sorts d in place and returns it.
func sortDurations(d []time.Duration) []time.Duration {
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	return d
}

// p50 returns the median of an unsorted sample without reordering it.
func p50(d []time.Duration) time.Duration {
	return percentile(sortDurations(append([]time.Duration(nil), d...)), 50)
}

// median returns the median of xs (the mean of the middle pair for an
// even count), or 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
