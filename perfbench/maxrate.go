package main

import "math"

// The max_rate_ops_s estimate: the highest offered rate whose latency,
// timed from each request's due time, stays within the limit with no
// growing backlog.
//
// The latency held to the limit is the median, not the p99. On the shared
// virtual machines this benchmark runs on, the host stalls vCPUs for
// milliseconds at a rate that changes from minute to minute; an open-loop
// p99 at a fixed 16,000 ops/s measured anywhere from 0.4 ms to 9 ms in
// runs minutes apart, so a p99 limit located the neighbours' load, not the
// server's knee. The median crosses 1 ms where requests queue behind a
// saturated server, which is a property of the code under test.
//
// The search runs in two stages. A bisection that trusts each probe's
// verdict is steered for good by one probe that a slow stretch of the
// machine spoiled, so first every rate of a coarse geometric ladder is
// probed in interleaved passes, which spreads a slow stretch over all
// rates; each rate's latency is the median over its windows, and the
// curve, made monotone, brackets the crossing. Near saturation the curve
// is so steep that the bracket's lower rate would decide the answer, so
// the bracket is then bisected a few times and the crossing interpolated
// in log latency between the last rate that meets the limit and the first
// that does not.

const (
	ladderBase  = fixedRate // lowest offered rate, ops/s
	ladderStep  = 1.25      // factor between neighbouring rates
	ladderRungs = 8         // 20k … 95k ops/s
	ladderPass  = 3         // interleaved passes over the ladder
	ladderClimb = 4         // probes above the top rung when none fails
	rateBisects = 3         // bisections of the bracket: ~3% resolution
)

// ladder returns the offered rates, lowest first.
func ladder() []float64 {
	rates := make([]float64, ladderRungs)
	r := float64(ladderBase)
	for i := range rates {
		rates[i] = r
		r *= ladderStep
	}
	return rates
}

// rung is what the probes of one offered rate measured.
type rung struct {
	rate   float64 // offered ops/s
	lat    float64 // µs: median latency, median over the rate's windows
	backed bool    // the backlog kept growing: the server did not keep up
}

func (r rung) pass(limitUs float64) bool { return !r.backed && r.lat <= limitUs }

// searchMaxRate brackets the limit crossing on the coarse ladder, climbing
// past its top with single probes when every rung passes, narrows the
// bracket with rateBisects probes, and interpolates. It returns 0 when even
// the lowest rate fails, and the highest rate probed when none does.
func searchMaxRate(coarse []rung, limitUs float64, probe func(rate float64) rung) float64 {
	if len(coarse) == 0 {
		return 0
	}
	mono := make([]rung, len(coarse))
	copy(mono, coarse)
	for i := 1; i < len(mono); i++ {
		// A lucky fast probe above a slow one must not raise the answer.
		mono[i].lat = max(mono[i].lat, mono[i-1].lat)
		mono[i].backed = mono[i].backed || mono[i-1].backed
	}
	first := -1
	for i, r := range mono {
		if !r.pass(limitUs) {
			first = i
			break
		}
	}
	if first == 0 {
		return 0
	}
	if first == -1 {
		for i := 0; i < ladderClimb && first == -1; i++ {
			top := mono[len(mono)-1]
			r := probe(top.rate * ladderStep)
			r.lat = max(r.lat, top.lat)
			mono = append(mono, r)
			if !r.pass(limitUs) {
				first = len(mono) - 1
			}
		}
		if first == -1 {
			return mono[len(mono)-1].rate
		}
	}
	lo, hi := mono[first-1], mono[first]
	for i := 0; i < rateBisects; i++ {
		r := probe(math.Sqrt(lo.rate * hi.rate))
		if r.pass(limitUs) {
			lo = r
		} else {
			hi = r
		}
	}
	return interpolate(lo, hi, limitUs)
}

// interpolate places the crossing between a passing and a failing rung,
// linearly in log latency against log rate. A rung that failed on backlog
// alone gives no latency slope, so the passing rate stands.
func interpolate(lo, hi rung, limitUs float64) float64 {
	if hi.lat <= limitUs || hi.lat <= lo.lat || lo.lat <= 0 {
		return lo.rate
	}
	f := math.Log(limitUs/lo.lat) / math.Log(hi.lat/lo.lat)
	return lo.rate * math.Pow(hi.rate/lo.rate, f)
}
