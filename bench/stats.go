package main

import (
	"math"
	"sort"
)

// metric is one named measurement of one run: the headline value plus the
// shape of the sample set behind it.
type metric struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
}

// scalar is a metric measured once (a count, a ratio, a heap reading).
func scalar(unit string, v float64) metric {
	return metric{Value: v, Unit: unit, N: 1, Median: v, Q1: v, Q3: v}
}

// medianOf is a metric whose headline value is the median of its samples.
func medianOf(unit string, samples []float64) metric {
	return pctOf(unit, samples, 50)
}

// pctOf is a metric whose headline value is the p-th percentile of its
// samples; median and quartiles describe the same samples.
func pctOf(unit string, samples []float64, p float64) metric {
	if len(samples) == 0 {
		return metric{Unit: unit}
	}
	s := sorted(samples)
	q1, med, q3 := quartiles(s)
	return metric{Value: percentile(s, p), Unit: unit, N: len(s), Median: med, Q1: q1, Q3: q3}
}

func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// percentile is the nearest-rank p-th percentile of an ascending slice.
func percentile(s []float64, p float64) float64 {
	if len(s) == 0 {
		return 0
	}
	i := int(math.Ceil(p/100*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

// quartiles matches Python's statistics.quantiles(v, n=4) (the exclusive
// method), so the spread the harness prints is the one the driver computes.
// A single sample is its own quartiles.
func quartiles(s []float64) (q1, med, q3 float64) {
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile distance as a share of the median: the
// run-to-run steadiness figure bounds are fixed from.
func spread(vals []float64) float64 {
	q1, med, q3 := quartiles(sorted(vals))
	if med == 0 {
		return 0
	}
	return math.Abs((q3 - q1) / med)
}

// tailPercentiles are the latency percentiles the harness may report.
var tailPercentiles = []float64{99, 95, 90, 75}

// tailPercentile picks the highest percentile that still has at least ten
// samples beyond it: a tail read from fewer samples is one slow request,
// not a distribution. Falls back to the median for tiny sample sets.
func tailPercentile(n int) float64 {
	for _, p := range tailPercentiles {
		if float64(n)*(100-p)/100 >= 10 {
			return p
		}
	}
	return 50
}

// roundMeans is the mean of each complete run of per consecutive samples.
func roundMeans(v []float64, per int) []float64 {
	var out []float64
	for ; len(v) >= per; v = v[per:] {
		out = append(out, mean(v[:per]))
	}
	return out
}

func mean(v []float64) float64 {
	var sum float64
	for _, x := range v {
		sum += x
	}
	return sum / float64(max(len(v), 1))
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }
