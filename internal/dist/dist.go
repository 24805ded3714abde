// Package dist implements the arrival distributions RAMSIS consumes: the
// probability PF(k, T) of k query arrivals at the central queue during a time
// interval of length T (§3.1.1 of the paper), together with the Erlang/Gamma
// machinery needed for round-robin per-worker arrival processes and seeded
// samplers for workload generation.
//
// All distributions here have independent and stationary increments (they are
// Lévy counting processes), the property §4.4.2 relies on to factor joint
// interval probabilities.
package dist

import (
	"fmt"
	"math"
)

// Arrival is a query arrival distribution: PF(k, T) is the probability that
// exactly k queries arrive at the central queue during any interval of
// length T seconds. Implementations must have independent and stationary
// increments so that non-overlapping intervals factor (§4.4.2).
type Arrival interface {
	// PF returns P[k arrivals during an interval of length t].
	// PF(k, 0) is 1 for k == 0 and 0 otherwise. t < 0 is treated as 0.
	PF(k int, t float64) float64
	// CDF returns P[at most k arrivals during an interval of length t].
	// CDF(-1, t) is 0.
	CDF(k int, t float64) float64
	// Rate returns the mean arrival rate in queries per second.
	Rate() float64
}

// Poisson is a Poisson arrival process with rate λ queries per second —
// the arrival distribution observed for production inference workloads and
// assumed throughout the paper's evaluation.
type Poisson struct {
	Lambda float64
}

// NewPoisson returns a Poisson arrival process with rate lambda (QPS).
// It panics if lambda is not positive and finite.
func NewPoisson(lambda float64) Poisson {
	if !(lambda > 0) || math.IsInf(lambda, 1) {
		panic(fmt.Sprintf("dist: invalid Poisson rate %v", lambda))
	}
	return Poisson{Lambda: lambda}
}

// Rate returns λ.
func (p Poisson) Rate() float64 { return p.Lambda }

// PF returns the Poisson pmf with mean λt, computed in log space for
// numerical stability at large means.
func (p Poisson) PF(k int, t float64) float64 {
	return PoissonPMF(k, p.Lambda*t)
}

// CDF returns the Poisson CDF with mean λt.
func (p Poisson) CDF(k int, t float64) float64 {
	return PoissonCDF(k, p.Lambda*t)
}

// PoissonPMF returns e^{-mu} mu^k / k! for mean mu >= 0.
func PoissonPMF(k int, mu float64) float64 {
	if mu < 0 {
		mu = 0
	}
	if k < 0 {
		return 0
	}
	if mu == 0 {
		if k == 0 {
			return 1
		}
		return 0
	}
	lg, _ := math.Lgamma(float64(k) + 1)
	return math.Exp(float64(k)*math.Log(mu) - mu - lg)
}

// PoissonCDF returns P[X <= k] for X ~ Poisson(mu). k < 0 yields 0.
func PoissonCDF(k int, mu float64) float64 {
	if k < 0 {
		return 0
	}
	if mu <= 0 {
		return 1
	}
	// Regularized upper incomplete gamma: P[X <= k] = Q(k+1, mu).
	return regularizedGammaQ(float64(k)+1, mu)
}

// PoissonTail returns P[X >= k] for X ~ Poisson(mu).
func PoissonTail(k int, mu float64) float64 {
	if k <= 0 {
		return 1
	}
	if mu <= 0 {
		return 0
	}
	return regularizedGammaP(float64(k), mu)
}

// ErlangPDF returns the Erlang(shape, rate) density at t.
func ErlangPDF(shape int, rate, t float64) float64 {
	if shape <= 0 || t < 0 {
		return 0
	}
	if t == 0 {
		if shape == 1 {
			return rate
		}
		return 0
	}
	lg, _ := math.Lgamma(float64(shape))
	return math.Exp(float64(shape)*math.Log(rate) + float64(shape-1)*math.Log(t) - rate*t - lg)
}

// Gamma is a renewal arrival process whose inter-arrival times are
// Gamma(Shape, Rate·Shape)-distributed with mean 1/Rate·... — concretely it
// is parameterized so that the mean arrival rate is Rate (QPS) and Shape
// controls burstiness: Shape == 1 is Poisson; Shape > 1 is more regular,
// Shape < 1 burstier. The paper (§3.1.1) notes the Gamma distribution as an
// alternative arrival distribution [28].
//
// PF(k, t) for a Gamma renewal process is not available in closed form in
// general; for integer Shape (an Erlang renewal process) it is, and that is
// what we implement: P[k arrivals in t] = F_k(t) − F_{k+1}(t) with F_k the
// Erlang(k·Shape, Rate·Shape) CDF, under the stationary-start approximation.
type Gamma struct {
	rate  float64 // mean arrivals per second
	shape int     // integer Erlang shape per inter-arrival
}

// NewGamma returns an Erlang-renewal ("Gamma") arrival process with mean
// rate QPS and integer inter-arrival shape (>= 1).
func NewGamma(rate float64, shape int) Gamma {
	if !(rate > 0) {
		panic(fmt.Sprintf("dist: invalid Gamma rate %v", rate))
	}
	if shape < 1 {
		panic(fmt.Sprintf("dist: invalid Gamma shape %d", shape))
	}
	return Gamma{rate: rate, shape: shape}
}

// Rate returns the mean arrival rate.
func (g Gamma) Rate() float64 { return g.rate }

// PF returns P[k arrivals in t] for the Erlang renewal process, assuming an
// arrival epoch at the interval start (ordinary renewal process).
func (g Gamma) PF(k int, t float64) float64 {
	if k < 0 {
		return 0
	}
	if t <= 0 {
		if k == 0 {
			return 1
		}
		return 0
	}
	stageRate := g.rate * float64(g.shape)
	// k arrivals iff the underlying Poisson(stageRate·t) stage count is in
	// [k·shape, (k+1)·shape).
	lo := PoissonCDF((k+1)*g.shape-1, stageRate*t)
	hi := PoissonCDF(k*g.shape-1, stageRate*t)
	return lo - hi
}

// CDF returns P[at most k arrivals in t].
func (g Gamma) CDF(k int, t float64) float64 {
	if k < 0 {
		return 0
	}
	if t <= 0 {
		return 1
	}
	stageRate := g.rate * float64(g.shape)
	return PoissonCDF((k+1)*g.shape-1, stageRate*t)
}

// regularizedGammaP computes P(a, x), the regularized lower incomplete gamma
// function, via series (x < a+1) or continued fraction.
func regularizedGammaP(a, x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x < a+1 {
		return gammaSeries(a, x)
	}
	return 1 - gammaContinuedFraction(a, x)
}

// regularizedGammaQ computes Q(a, x) = 1 − P(a, x).
func regularizedGammaQ(a, x float64) float64 {
	if x <= 0 {
		return 1
	}
	if x < a+1 {
		return 1 - gammaSeries(a, x)
	}
	return gammaContinuedFraction(a, x)
}

const (
	gammaEps     = 1e-14
	gammaMaxIter = 10000
)

func gammaSeries(a, x float64) float64 {
	lg, _ := math.Lgamma(a)
	ap := a
	sum := 1.0 / a
	del := sum
	for i := 0; i < gammaMaxIter; i++ {
		ap++
		del *= x / ap
		sum += del
		if math.Abs(del) < math.Abs(sum)*gammaEps {
			break
		}
	}
	return sum * math.Exp(-x+a*math.Log(x)-lg)
}

func gammaContinuedFraction(a, x float64) float64 {
	lg, _ := math.Lgamma(a)
	const tiny = 1e-300
	b := x + 1 - a
	c := 1 / tiny
	d := 1 / b
	h := d
	for i := 1; i <= gammaMaxIter; i++ {
		an := -float64(i) * (float64(i) - a)
		b += 2
		d = an*d + b
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = b + an/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < gammaEps {
			break
		}
	}
	return math.Exp(-x+a*math.Log(x)-lg) * h
}
