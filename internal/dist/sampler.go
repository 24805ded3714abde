package dist

import (
	"fmt"
	"math/rand"
)

// Sampler draws inter-arrival times for a workload generator. Implementations
// are deterministic given the seed of the supplied *rand.Rand.
type Sampler interface {
	// NextInterarrival returns the time in seconds until the next arrival.
	NextInterarrival(rng *rand.Rand) float64
	// Rate returns the mean arrival rate in queries per second.
	Rate() float64
}

// NextInterarrival draws an Exp(λ) inter-arrival time.
func (p Poisson) NextInterarrival(rng *rand.Rand) float64 {
	return rng.ExpFloat64() / p.Lambda
}

// NextInterarrival draws an Erlang(shape, rate·shape) inter-arrival time,
// i.e. the sum of shape exponential stages, preserving the mean rate.
func (g Gamma) NextInterarrival(rng *rand.Rand) float64 {
	stageRate := g.rate * float64(g.shape)
	sum := 0.0
	for i := 0; i < g.shape; i++ {
		sum += rng.ExpFloat64() / stageRate
	}
	return sum
}

// OnOff is a bursty workload sampler: a two-phase process alternating
// between a burst phase (rate multiplied by BurstFactor) and a calm phase,
// with exponentially distributed phase durations, normalized so the mean
// rate stays Rate(). It is burstier than Poisson (a simple Markov-modulated
// Poisson process) and is used to stress policies generated under a
// mismatched arrival assumption. It is a Sampler only — it has no
// closed-form PF — so it drives workload generation, not policy generation.
type OnOff struct {
	rate        float64
	burstFactor float64
	meanOn      float64 // mean burst-phase duration, seconds
	meanOff     float64 // mean calm-phase duration, seconds

	inBurst   bool
	phaseLeft float64
}

// NewOnOff builds a bursty sampler with the given mean rate, burst
// multiplier (> 1), and mean phase durations. The calm-phase rate is chosen
// so the long-run average rate equals rate; the parameters must leave it
// non-negative.
func NewOnOff(rate, burstFactor, meanOn, meanOff float64) *OnOff {
	if !(rate > 0) || burstFactor <= 1 || meanOn <= 0 || meanOff <= 0 {
		panic(fmt.Sprintf("dist: invalid OnOff(%v, %v, %v, %v)", rate, burstFactor, meanOn, meanOff))
	}
	if rate*burstFactor*meanOn > rate*(meanOn+meanOff) {
		panic("dist: OnOff burst carries more than the total arrival budget")
	}
	return &OnOff{rate: rate, burstFactor: burstFactor, meanOn: meanOn, meanOff: meanOff}
}

// Rate returns the long-run mean arrival rate.
func (o *OnOff) Rate() float64 { return o.rate }

// calmRate solves the normalization: rate·(on+off) = on·rate·bf + off·calm.
func (o *OnOff) calmRate() float64 {
	return (o.rate*(o.meanOn+o.meanOff) - o.rate*o.burstFactor*o.meanOn) / o.meanOff
}

// NextInterarrival draws the next gap, advancing phases as needed.
func (o *OnOff) NextInterarrival(rng *rand.Rand) float64 {
	elapsed := 0.0
	for {
		r := o.calmRate()
		mean := o.meanOff
		if o.inBurst {
			r = o.rate * o.burstFactor
			mean = o.meanOn
		}
		if o.phaseLeft <= 0 {
			o.phaseLeft = rng.ExpFloat64() * mean
		}
		if r <= 0 {
			// Silent calm phase: skip to the next burst.
			elapsed += o.phaseLeft
			o.phaseLeft = 0
			o.inBurst = !o.inBurst
			continue
		}
		gap := rng.ExpFloat64() / r
		if gap <= o.phaseLeft {
			o.phaseLeft -= gap
			return elapsed + gap
		}
		elapsed += o.phaseLeft
		o.phaseLeft = 0
		o.inBurst = !o.inBurst
	}
}
