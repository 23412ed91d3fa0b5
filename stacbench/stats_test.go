package main

import "testing"

func TestPercentileNearestRank(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct {
		q    float64
		want float64
	}{{0.5, 5}, {0.9, 9}, {0.99, 10}, {0.1, 1}, {1, 10}} {
		if got := percentile(s, c.q); got != c.want {
			t.Errorf("percentile(q=%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

// TestTailSampleRule pins the sample-count rule: p99 is reported only
// with at least ten samples beyond it, which takes 1000 samples.
func TestTailSampleRule(t *testing.T) {
	for _, c := range []struct {
		n      int
		beyond int
		ok     bool
	}{{999, 9, false}, {1000, 10, true}, {1152, 11, true}, {100, 1, false}} {
		v := make([]float64, c.n)
		for i := range v {
			v[i] = float64(c.n - i)
		}
		if got := beyond(c.n, 0.99); got != c.beyond {
			t.Errorf("beyond(%d, 0.99) = %d, want %d", c.n, got, c.beyond)
		}
		sum, err := summarize("x", v)
		if (err == nil) != c.ok {
			t.Errorf("summarize(%d samples) error = %v, want ok=%v", c.n, err, c.ok)
		}
		if sum.n != c.n || sum.tail != c.beyond {
			t.Errorf("summarize(%d samples) = n %d tail %d", c.n, sum.n, sum.tail)
		}
	}
}
