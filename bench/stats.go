package main

import (
	"sort"
	"time"
)

// median of a sample; 0 for an empty one. The input is not modified.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile reads quantile p of a sample, interpolating linearly between
// the two nearest ranks; 0 for an empty one. The input is not modified.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := p * float64(len(s)-1)
	lo := int(at)
	hi := min(lo+1, len(s)-1)
	return s[lo] + (s[hi]-s[lo])*(at-float64(lo))
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(values, n=4) does (the exclusive method), which
// is how the benchmark contract defines a metric's spread. It needs at
// least two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	cut := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(3)
}

// spread is the interquartile range as a share of the median.
func spread(xs []float64) float64 {
	m := median(xs)
	if len(xs) < 2 || m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / m
}

func sortDurations(ds []time.Duration) {
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
}

// quantileDur reads quantile p from sorted durations (nearest rank).
func quantileDur(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[int(p*float64(len(sorted)-1))]
}

// medianDur is the median of unsorted durations (nearest rank); 0 for
// none. The input is not modified.
func medianDur(ds []time.Duration) time.Duration {
	s := append([]time.Duration(nil), ds...)
	sortDurations(s)
	return quantileDur(s, 0.5)
}

// tailQuantile picks the highest percentile that still has at least ten
// samples beyond it, per the metrics guide: p99.9, p99, p95 or p90,
// falling back to the maximum for tiny samples. It returns the value and
// the percentile used.
func tailQuantile(sorted []time.Duration) (time.Duration, float64) {
	n := len(sorted)
	for _, p := range []float64{0.999, 0.99, 0.95, 0.90} {
		if float64(n)*(1-p) >= 10 {
			return quantileDur(sorted, p), p
		}
	}
	return quantileDur(sorted, 1), 1
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
