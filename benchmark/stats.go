package main

import (
	"math"
	"sort"
)

// quartiles returns what Python's statistics.quantiles(v, n=4) returns
// (the default "exclusive" method), which is what the driver computes
// spreads with. v needs at least two values.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	cut := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4 // may fall outside [0,4]: Python extrapolates too
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile distance as a share of the median.
func spread(v []float64) float64 {
	q1, q2, q3 := quartiles(v)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	if len(v) == 1 {
		return v[0]
	}
	_, q2, _ := quartiles(v)
	return q2
}

// percentile is the nearest-rank p-th percentile of sorted samples.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	return sorted[min(max(rank, 1), len(sorted))-1]
}

// tailPermille are the candidates of the reporting rule below, in
// thousandths so the rule is exact in integers.
var tailPermille = []int{999, 990, 950, 900, 750}

// highestPercentile applies the reporting rule for a timing: the highest
// percentile that still has at least ten samples beyond it. With fewer
// than 40 samples there is none, and ok is false.
func highestPercentile(n int) (p float64, ok bool) {
	for _, pm := range tailPermille {
		if n*(1000-pm) >= 10*1000 {
			return float64(pm) / 10, true
		}
	}
	return 0, false
}
