package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between order statistics; 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func sum(xs []float64) float64 { return mean(xs) * float64(len(xs)) }

// tailPercentiles are the candidates for the reported tail, ascending.
var tailPercentiles = []float64{50, 75, 90, 95, 99, 99.9}

// tailPercentile picks the highest candidate percentile that still has
// at least ten samples beyond it — a tail estimated from fewer is one
// or two outliers, not a percentile — and returns it with its value.
// With fewer than twenty samples no candidate qualifies and it falls
// back to the median.
func tailPercentile(xs []float64) (pct, value float64) {
	pct = 50
	for _, p := range tailPercentiles {
		beyond := float64(len(xs)) * (100 - p) / 100
		if beyond >= 10-1e-9 {
			pct = p
		}
	}
	return pct, quantile(xs, pct/100)
}

// quartiles returns q1, median, q3 the way Python's
// statistics.quantiles(xs, n=4) does (exclusive method), because that
// is what the driver computes its spread from.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	at := func(i int) float64 { // i of 4 cut points
		pos := float64(i) * float64(n+1) / 4
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + (s[j]-s[j-1])*frac
	}
	return at(1), at(2), at(3)
}
