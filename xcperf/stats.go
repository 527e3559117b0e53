package main

import (
	"math"
	"sort"
	"time"
)

// samples is a set of latency observations of one operation type.
type samples []time.Duration

// quantile returns the q-quantile (0 <= q <= 1), interpolated linearly
// between the two nearest order statistics (the common "type 7"
// definition), so a tail that falls between two clusters of samples
// moves smoothly instead of jumping from one to the other. An empty set
// has quantile 0.
func (s samples) quantile(q float64) time.Duration {
	if len(s) == 0 {
		return 0
	}
	sorted := append(samples(nil), s...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	h := q * float64(len(sorted)-1)
	lo := int(math.Floor(h))
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	return sorted[lo] + time.Duration((h-float64(lo))*float64(sorted[lo+1]-sorted[lo]))
}

// beyond counts the observations strictly above the q-quantile: the
// support behind a reported tail percentile.
func (s samples) beyond(q float64) int {
	v := s.quantile(q)
	n := 0
	for _, d := range s {
		if d > v {
			n++
		}
	}
	return n
}

// mean returns the arithmetic mean (0 when empty).
func (s samples) mean() time.Duration {
	if len(s) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range s {
		sum += d
	}
	return sum / time.Duration(len(s))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// medianFloat returns the median of vs (the mean of the middle pair for
// an even count).
func medianFloat(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ratio returns num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
