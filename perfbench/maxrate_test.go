package main

import (
	"math"
	"testing"
)

// queue is a synthetic server: latency rises as the offered rate approaches
// capacity, like an M/M/1 queue's, and a backlog grows beyond it.
func queue(baseUs, capacity float64) func(rate float64) rung {
	return func(rate float64) rung {
		if rate >= capacity {
			return rung{rate: rate, lat: 1e6, backed: true}
		}
		return rung{rate: rate, lat: baseUs / (1 - rate/capacity)}
	}
}

func coarse(probe func(float64) rung) []rung {
	var rungs []rung
	for _, rate := range ladder() {
		rungs = append(rungs, probe(rate))
	}
	return rungs
}

func TestSearchMaxRateFindsCrossing(t *testing.T) {
	for _, tc := range []struct{ base, capacity float64 }{
		{100, 50_000},
		{120, 68_000},
		{150, 90_000},
		{300, 40_000},
	} {
		want := tc.capacity * (1 - tc.base/limitUs) // where latency = limit
		probes := 0
		probe := queue(tc.base, tc.capacity)
		counted := func(rate float64) rung { probes++; return probe(rate) }
		got := searchMaxRate(coarse(probe), limitUs, counted)
		if math.Abs(got-want)/want > 0.03 {
			t.Errorf("base %g cap %g: max rate %.0f, want %.0f ±3%%", tc.base, tc.capacity, got, want)
		}
		if probes != rateBisects {
			t.Errorf("base %g cap %g: %d refining probes, want %d", tc.base, tc.capacity, probes, rateBisects)
		}
	}
}

func TestSearchMaxRateEdges(t *testing.T) {
	rates := ladder()
	if rates[0] != ladderBase || len(rates) != ladderRungs || math.Abs(rates[1]/rates[0]-ladderStep) > 1e-12 {
		t.Fatalf("ladder = %v", rates)
	}
	never := func(float64) rung { t.Fatal("no bracket to refine"); return rung{} }
	if got := searchMaxRate(coarse(queue(2000, 1e9)), limitUs, never); got != 0 {
		t.Errorf("every rung fails: max rate %g, want 0", got)
	}
	// Every rung passes: the search climbs past the top before bisecting.
	var asked []float64
	climb := queue(100, 200_000)
	got := searchMaxRate(coarse(climb), limitUs, func(rate float64) rung { asked = append(asked, rate); return climb(rate) })
	if want := 180_000.0; math.Abs(got-want)/want > 0.03 || len(asked) < 1+rateBisects || asked[0] <= rates[len(rates)-1] {
		t.Errorf("knee above the ladder: max rate %.0f after probing %v, want %.0f ±3%%", got, asked, want)
	}
	unbounded := func(rate float64) rung { return rung{rate: rate, lat: 10} }
	if got := searchMaxRate(coarse(unbounded), limitUs, unbounded); got != rates[len(rates)-1]*math.Pow(ladderStep, ladderClimb) {
		t.Errorf("no probe fails: max rate %g, want the highest rate probed", got)
	}
	if got := searchMaxRate(nil, limitUs, never); got != 0 {
		t.Errorf("no rungs: %g", got)
	}
}

// A fast probe above a slow one must not raise the bracket.
func TestSearchMaxRateMonotone(t *testing.T) {
	rungs := []rung{
		{rate: 20_000, lat: 300},
		{rate: 25_000, lat: 1400}, // a slow stretch
		{rate: 31_250, lat: 500},  // a lucky one
		{rate: 39_062, lat: 2000},
	}
	var asked []float64
	probe := func(rate float64) rung { asked = append(asked, rate); return rung{rate: rate, lat: 900} }
	got := searchMaxRate(rungs, limitUs, probe)
	if asked[0] <= 20_000 || asked[0] >= 25_000 || got < 20_000 || got > 25_000 {
		t.Errorf("probed %v, max rate %g: want both inside the 20000…25000 bracket", asked, got)
	}
}

// A rung that fails on backlog alone gives no slope to interpolate along.
func TestInterpolate(t *testing.T) {
	lo := rung{rate: 40_000, lat: 500}
	if got := interpolate(lo, rung{rate: 50_000, lat: 800, backed: true}, limitUs); got != lo.rate {
		t.Errorf("backlog-only failure: %g, want %g", got, lo.rate)
	}
	// Halfway in log latency is halfway in log rate.
	got := interpolate(lo, rung{rate: 50_000, lat: 2000}, limitUs)
	if want := math.Sqrt(40_000 * 50_000); math.Abs(got-want) > 1e-6 {
		t.Errorf("interpolate = %g, want %g", got, want)
	}
}
