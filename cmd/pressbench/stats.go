package main

import (
	"math"
	"sort"
	"time"
)

// stat summarizes one metric's samples on one workload: the reported
// value is the median; min, max and n are its recorded spread.
type stat struct {
	Median float64 `json:"median"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	N      int     `json:"n"`
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle sample (mean of the two middle ones for an
// even count), or 0 for no samples.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := sorted(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func summarize(xs []float64) stat {
	if len(xs) == 0 {
		return stat{}
	}
	s := sorted(xs)
	return stat{Median: median(s), Min: s[0], Max: s[len(s)-1], N: len(s)}
}

// quantile returns the nearest-rank q-quantile (0 < q <= 1).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// tailPercentiles are the candidates highestPercentile picks from.
var tailPercentiles = []float64{0.9999, 0.999, 0.99, 0.95, 0.9, 0.75, 0.5}

// highestPercentile picks the highest tail percentile that still has at
// least ten samples beyond it — a p99 over 200 samples rests on two
// points, so the report falls back to p95 there — and returns it with its
// value. With fewer than twenty samples it degrades to the median.
func highestPercentile(xs []float64) (q, v float64) {
	n := float64(len(xs))
	for _, p := range tailPercentiles {
		if n*(1-p) >= 10 {
			return p, quantile(xs, p)
		}
	}
	return 0.5, median(xs)
}

// ms and us are a duration in the units the span metrics use.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}
