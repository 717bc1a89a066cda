package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a percentile before it
// is reported: p99 needs at least 1000 samples, p50 at least 20.
const minBeyond = 10

// percentile returns the q-quantile (0 < q < 1) of xs by the
// nearest-rank rule, and false when fewer than minBeyond samples lie
// beyond it.
func percentile(xs []float64, q float64) (float64, bool) {
	n := len(xs)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(q * float64(n))) // 1-based
	if rank < 1 {
		rank = 1
	}
	if n-rank < minBeyond {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], true
}

// median is the middle value (mean of the two middle ones), 0 when empty.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// latencies collects timings of one request class, in milliseconds.
type latencies []float64

func (l *latencies) add(d time.Duration) { *l = append(*l, ms(d)) }

// summary renders count, p50 and the p99 when it has enough samples.
func (l latencies) summary() string {
	s := fmt.Sprintf("n=%d p50=%.3fms", len(l), median(l))
	if p99, ok := percentile(l, 0.99); ok {
		s += fmt.Sprintf(" p99=%.3fms", p99)
	} else {
		s += " p99=n/a(too few samples)"
	}
	return s
}
