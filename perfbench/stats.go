package main

import (
	"fmt"
	"math"
	"slices"
)

// minTail is the number of samples that must lie beyond a reported
// percentile: a p99 needs at least 1000 samples, so that one stray sample
// cannot be the whole tail.
const minTail = 10

// samples collects per-operation latencies in nanoseconds. uint32 keeps
// millions of samples cheap; a sample longer than ~4.29 s is clamped, and
// the exact maximum is kept separately.
type samples struct {
	ns  []uint32
	max int64
}

func (s *samples) add(d int64) {
	if d > s.max {
		s.max = d
	}
	if d < 0 {
		d = 0
	}
	if d > 1<<32-1 {
		d = 1<<32 - 1
	}
	s.ns = append(s.ns, uint32(d))
}

func (s *samples) merge(o *samples) {
	s.ns = append(s.ns, o.ns...)
	if o.max > s.max {
		s.max = o.max
	}
}

func (s *samples) n() int { return len(s.ns) }

// sum is the total of the samples in nanoseconds.
func (s *samples) sum() float64 {
	var t float64
	for _, v := range s.ns {
		t += float64(v)
	}
	return t
}

// quantile returns the q-quantile of sorted by nearest rank, and an error
// when fewer than minTail samples lie beyond it.
func quantile(sorted []uint32, q float64) (float64, error) {
	n := len(sorted)
	if n == 0 {
		return 0, fmt.Errorf("no samples")
	}
	rank := int(math.Ceil(q*float64(n))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= n {
		rank = n - 1
	}
	if beyond := n - 1 - rank; q > 0.5 && beyond < minTail {
		return 0, fmt.Errorf("p%g needs %d samples beyond it, have %d of %d", q*100, minTail, beyond, n)
	}
	return float64(sorted[rank]), nil
}

// sortedCopy returns ns sorted, leaving ns as it was.
func sortedCopy(ns []uint32) []uint32 {
	s := slices.Clone(ns)
	slices.Sort(s)
	return s
}

// median returns the median of xs (the mean of the middle two for an even
// count); 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// ratio is a/b, or 0 when b is 0 (a layer the workload never reaches).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// Windows. A rate or a tail taken over a whole run is decided by the
// worst stretch of it: on a shared virtual machine the host now and then
// stalls a vCPU for milliseconds, and an open-loop generator queues every
// request due during a stall. So runs are cut into windows (fill rounds,
// one-second slices of update-read, 200 ms slices of serve-ycsb-a), and a
// rate or tail is the median over windows.

// all merges per-window samples into one set.
func all(ws ...[]samples) *samples {
	var s samples
	for _, w := range ws {
		for i := range w {
			s.merge(&w[i])
		}
	}
	return &s
}

// windowed returns the median over windows of each window's q-quantile in
// nanoseconds, and an error when a window cannot support it.
func windowed(q float64, ws ...[]samples) (float64, error) {
	var per []float64
	for i := range ws[0] {
		var s samples
		for _, w := range ws {
			s.merge(&w[i])
		}
		v, err := quantile(sortedCopy(s.ns), q)
		if err != nil {
			return 0, fmt.Errorf("window %d: %w", i, err)
		}
		per = append(per, v)
	}
	if len(per) == 0 {
		return 0, fmt.Errorf("no windows")
	}
	return median(per), nil
}

// tailPair reports prefix_p50_us over every sample and prefix_p99_us as the
// median of the windows' p99s, invalidating the run when a window is too
// small for its p99.
func (r *result) tailPair(prefix string, ws []samples) {
	merged := all(ws)
	p50, err := quantile(sortedCopy(merged.ns), 0.5)
	if err != nil {
		r.invalidate("%s p50: %v", prefix, err)
	}
	p99, err := windowed(0.99, ws)
	if err != nil {
		r.invalidate("%s p99: %v", prefix, err)
	}
	r.add(prefix+"_p50_us", p50/1e3, "us", merged.n())
	r.add(prefix+"_p99_us", p99/1e3, "us", merged.n())
}
