package main

import (
	"strings"
	"testing"
)

func ramp(n int) []uint32 {
	s := make([]uint32, n)
	for i := range s {
		s[i] = uint32(i + 1)
	}
	return s
}

// TestQuantileNearestRank pins the percentile rule: nearest rank, so the
// reported value is always one that was measured.
func TestQuantileNearestRank(t *testing.T) {
	for _, tc := range []struct {
		n    int
		q    float64
		want float64
	}{
		{1, 0.5, 1},
		{2, 0.5, 1},
		{3, 0.5, 2},
		{100, 0.5, 50},
		{1000, 0.99, 990},
		{1001, 0.99, 991},
		{5000, 0.99, 4950},
	} {
		got, err := quantile(ramp(tc.n), tc.q)
		if err != nil || got != tc.want {
			t.Errorf("quantile(1..%d, %g) = %g, %v; want %g", tc.n, tc.q, got, err, tc.want)
		}
	}
}

// TestQuantileSampleCount pins the sample-count rule: a tail percentile
// needs at least ten samples beyond it, so a p99 needs 1000 samples.
func TestQuantileSampleCount(t *testing.T) {
	if _, err := quantile(ramp(999), 0.99); err == nil || !strings.Contains(err.Error(), "needs 10 samples") {
		t.Errorf("p99 of 999 samples: err = %v, want a sample-count error", err)
	}
	if _, err := quantile(ramp(1000), 0.99); err != nil {
		t.Errorf("p99 of 1000 samples: %v", err)
	}
	if _, err := quantile(nil, 0.5); err == nil {
		t.Error("median of no samples: want an error")
	}
	// A median needs no tail: one sample is enough.
	if _, err := quantile(ramp(1), 0.5); err != nil {
		t.Errorf("median of one sample: %v", err)
	}
}

// TestTailPairInvalidatesThinTail checks that a reported p99 without
// enough samples marks the run invalid instead of printing a guess.
func TestTailPairInvalidatesThinTail(t *testing.T) {
	ws := make([]samples, 2)
	for i := 1; i <= 500; i++ {
		ws[i%2].add(int64(i) * 1000)
	}
	var r result
	r.tailPair("get", ws)
	if len(r.invalid) != 1 {
		t.Fatalf("invalid = %q, want one reason", r.invalid)
	}
	if len(r.metrics) != 2 || r.metrics[0].value != 250 || r.metrics[0].samples != 500 {
		t.Errorf("metrics = %+v, want get_p50_us 250 and get_p99_us with n=500", r.metrics)
	}
}

// TestWindowedMedianIgnoresOneStall checks that one stalled window cannot
// decide a tail: the median over windows of per-window p99s.
func TestWindowedMedianIgnoresOneStall(t *testing.T) {
	ws := make([]samples, 5)
	for w := range ws {
		for i := 0; i < 2000; i++ {
			ws[w].add(100_000)
		}
	}
	for i := 0; i < 200; i++ {
		ws[2].ns[i] = 5_000_000 // a 5 ms host stall in one window
	}
	got, err := windowed(0.99, ws)
	if err != nil || got != 100_000 {
		t.Errorf("windowed p99 = %g, %v; want 100000", got, err)
	}
	if _, err := windowed(0.99, []samples{{ns: ramp(10)}}); err == nil {
		t.Error("a window too small for its p99 must be an error")
	}
}

func TestSamplesClampAndMax(t *testing.T) {
	var s samples
	s.add(-5)
	s.add(10_000_000_000) // 10 s: beyond uint32 nanoseconds
	if s.ns[0] != 0 || s.ns[1] != 1<<32-1 || s.max != 10_000_000_000 {
		t.Errorf("samples = %v, max %d", s.ns, s.max)
	}
}

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0}, {[]float64{3}, 3}, {[]float64{4, 1}, 2.5}, {[]float64{5, 1, 3}, 3},
	} {
		if got := median(tc.in); got != tc.want {
			t.Errorf("median(%v) = %g, want %g", tc.in, got, tc.want)
		}
	}
}
