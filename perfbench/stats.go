package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a reported tail
// percentile.
const minBeyond = 10

// tailLadder is the set of percentiles a tail may be reported at,
// highest first.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// rankIndex is the nearest-rank index of percentile p among n sorted
// samples. The slack absorbs the rounding of p/100*n (99.9% of 10000
// is 9990, not 9990.000000000002).
func rankIndex(p float64, n int) int {
	i := int(math.Ceil(p/100*float64(n)-1e-9)) - 1
	if i < 0 {
		i = 0
	}
	if i > n-1 {
		i = n - 1
	}
	return i
}

// tailPercentile returns the highest ladder percentile that leaves at
// least minBeyond of n samples beyond it, or 0 when n is too small for
// any.
func tailPercentile(n int) float64 {
	for _, p := range tailLadder {
		if n-1-rankIndex(p, n) >= minBeyond {
			return p
		}
	}
	return 0
}

// percentile returns the nearest-rank percentile p of xs (unsorted; xs
// is not modified). +Inf samples (failed operations) sort last.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rankIndex(p, len(s))]
}

// median is percentile 50 with linear interpolation between the two
// middle samples of an even count.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// us converts a duration to float microseconds.
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// durationsMS converts durations to float milliseconds.
func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}
