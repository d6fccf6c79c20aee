package main

import (
	"math"
	"sort"
)

// sample is a set of repeated measurements of one quantity.
type sample []float64

// sorted returns an ascending copy.
func (s sample) sorted() []float64 {
	out := append([]float64(nil), s...)
	sort.Float64s(out)
	return out
}

// quartiles returns the first quartile, the median and the third quartile
// exactly as Python's statistics.quantiles(values, n=4) computes them (the
// "exclusive" method), because that is the arithmetic the acceptance rule
// for this benchmark is written in. One value is its own quartiles.
func (s sample) quartiles() (q1, med, q3 float64) {
	v := s.sorted()
	switch len(v) {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return v[0], v[0], v[0]
	}
	cut := func(i int) float64 {
		m := len(v) + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > len(v)-1 {
			j = len(v) - 1
		}
		delta := float64(i*m - j*4)
		return (v[j-1]*(4-delta) + v[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// median is the second quartile.
func (s sample) median() float64 {
	_, med, _ := s.quartiles()
	return med
}

// mean is the arithmetic mean.
func (s sample) mean() float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range s {
		sum += x
	}
	return sum / float64(len(s))
}

// scaled returns the sample with every value multiplied by f.
func (s sample) scaled(f float64) sample {
	out := make(sample, len(s))
	for i, x := range s {
		out[i] = x * f
	}
	return out
}

// tailLadder lists the percentiles a timing may report beyond its median,
// highest first, in per mille.
var tailLadder = []int{999, 990, 900}

// tailPercentile picks the highest percentile of the ladder that still has
// at least ten of n samples beyond its nearest-rank value; ok is false
// when even p90 has not.
func tailPercentile(n int) (p float64, ok bool) {
	for _, pm := range tailLadder {
		if rank := (n*pm + 999) / 1000; n-rank >= 10 {
			return float64(pm) / 1000, true
		}
	}
	return 0, false
}

// percentile is the nearest-rank percentile: the smallest value with at
// least p*n values at or below it.
func (s sample) percentile(p float64) float64 {
	v := s.sorted()
	if len(v) == 0 {
		return math.NaN()
	}
	idx := int(math.Ceil(p*float64(len(v)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(v) {
		idx = len(v) - 1
	}
	return v[idx]
}

// tail is the value at tailPercentile, or the maximum when the sample is
// too small to support one.
func (s sample) tail() (value, p float64) {
	p, ok := tailPercentile(len(s))
	if !ok {
		return s.percentile(1), 1
	}
	return s.percentile(p), p
}
