package main

import (
	"math"
	"testing"
)

// quartiles must agree with Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 1, 7, 3}, 1.5, 9.25},
		{[]float64{5, 9}, 4, 10},
		{[]float64{2, 4, 4, 5, 7, 9, 11}, 4, 9},
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; Python gives %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestJudge(t *testing.T) {
	qps := e2eMetric{"query_qps_adj", "1/s", true, 0.10}
	lat := e2eMetric{"query_p50_adj_ms", "ms", false, 0.10}
	steady := func(base float64, n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = base * (1 + 0.002*float64(i%5))
		}
		return xs
	}
	noisy := func(base float64, n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = base * (1 + 0.08*float64(i%5))
		}
		return xs
	}
	for _, c := range []struct {
		what       string
		m          e2eMetric
		olds, news []float64
		want       string
	}{
		{"same numbers", qps, steady(100, 10), steady(100, 10), verdictUnchanged},
		{"clear gain, ten pairs", qps, steady(100, 10), steady(120, 10), verdictBetter},
		{"clear gain, too few pairs", qps, steady(100, 5), steady(120, 5), verdictUnchanged},
		{"clear loss, ten pairs", qps, steady(100, 10), steady(80, 10), verdictWorse},
		{"loss beyond the bound, few pairs", lat, steady(10, 5), steady(12, 5), verdictWorse},
		{"loss within the bound", lat, steady(10, 10), steady(10.5, 10), verdictWorse}, // nine tenths lost and gap > IQR
		{"spread wider than the bound", qps, noisy(100, 10), noisy(101, 10), verdictUnresolved},
		{"lower is better", lat, steady(10, 10), steady(8, 10), verdictBetter},
		{"a single pair", qps, []float64{100}, []float64{101}, verdictUnresolved},
	} {
		if got, _, _ := judge(c.m, c.olds, c.news); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.what, got, c.want)
		}
	}
}
