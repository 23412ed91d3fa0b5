package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minTail is the sample-count rule for percentiles: a percentile is
// reported only when at least this many samples lie beyond it.
const minTail = 10

// percentile returns the nearest-rank q-quantile (0 < q ≤ 1) of
// sorted samples: the smallest value with at least q·n samples at or
// below it.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// beyond is the number of samples ranked above the q-quantile.
func beyond(n int, q float64) int {
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		return 0
	}
	return n - rank
}

// summary is a timing distribution reduced to what the benchmark
// reports: the sample count, the median and the 99th percentile.
type summary struct {
	n        int
	p50, p99 float64
	tail     int // samples beyond p99
}

// summarize sorts a copy of the samples (in microseconds). It fails
// when fewer than minTail samples lie beyond the 99th percentile,
// because such a p99 is one or two outliers, not a percentile.
func summarize(name string, samples []float64) (summary, error) {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	sum := summary{n: len(s), p50: percentile(s, 0.5), p99: percentile(s, 0.99), tail: beyond(len(s), 0.99)}
	if sum.tail < minTail {
		return sum, fmt.Errorf("%s: %d samples leave %d beyond p99, need %d", name, len(s), sum.tail, minTail)
	}
	return sum, nil
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return percentile(s, 0.5)
}

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
