package dist

import "math"

// Process is an arrival distribution that additionally exposes the density
// of its k-th arrival epoch, measured from a renewal (arrival) epoch. The
// RAMSIS transition builder integrates this density over slack buckets to
// obtain the paper's interval-B/C/D joint probabilities in closed form.
type Process interface {
	Arrival
	// KthArrivalPDF returns the density at time t of the k-th arrival
	// (k >= 1), given an arrival epoch at time 0.
	KthArrivalPDF(k int, t float64) float64
}

// KthArrivalPDF for a Poisson process: the k-th arrival time is
// Erlang(k, λ).
func (p Poisson) KthArrivalPDF(k int, t float64) float64 {
	return ErlangPDF(k, p.Lambda, t)
}

// KthArrivalPDF for the Erlang renewal process: the k-th arrival is the sum
// of k·shape exponential stages of rate rate·shape.
func (g Gamma) KthArrivalPDF(k int, t float64) float64 {
	return ErlangPDF(k*g.shape, g.rate*float64(g.shape), t)
}

// KthArrivalTable tabulates f_k(t_g) for k = 1..kmax at the cell-midpoint
// times t_g = (g+0.5)·delta, g = 0..cells-1. Row g holds the kmax densities
// for time t_g. Values are computed in log space with a shared log-factorial
// table, so a whole table costs O(cells·kmax) flops rather than one Lgamma
// call per entry.
func KthArrivalTable(p Process, kmax, cells int, delta float64) [][]float64 {
	table := make([][]float64, cells)
	switch proc := p.(type) {
	case Poisson:
		fillErlangTable(table, kmax, 1, proc.Lambda, delta)
	case Gamma:
		fillErlangTable(table, kmax, proc.shape, proc.rate*float64(proc.shape), delta)
	default:
		for g := range table {
			t := (float64(g) + 0.5) * delta
			row := make([]float64, kmax)
			for k := 1; k <= kmax; k++ {
				row[k-1] = p.KthArrivalPDF(k, t)
			}
			table[g] = row
		}
	}
	return table
}

// fillErlangTable fills table[g][k-1] with ErlangPDF(k·stride, rate, t_g).
func fillErlangTable(table [][]float64, kmax, stride int, rate, delta float64) {
	// log((n-1)!) for n = 1..kmax·stride.
	logFact := make([]float64, kmax*stride+1)
	for n := 2; n <= kmax*stride; n++ {
		logFact[n] = logFact[n-1] + math.Log(float64(n-1))
	}
	logRate := math.Log(rate)
	for g := range table {
		t := (float64(g) + 0.5) * delta
		logT := math.Log(rate * t)
		row := make([]float64, kmax)
		for k := 1; k <= kmax; k++ {
			shape := k * stride
			// log f = shape·log(rate) + (shape-1)·log(t) − rate·t − log((shape-1)!)
			//       = log(rate) + (shape-1)·log(rate·t) − rate·t − log((shape-1)!)
			lf := logRate + float64(shape-1)*logT - rate*t - logFact[shape]
			row[k-1] = math.Exp(lf)
		}
		table[g] = row
	}
}

// RegIncBeta returns the regularized incomplete beta function I_x(a, b),
// used for Binomial tails: P[Bin(n, p) >= k] = I_p(k, n-k+1).
func RegIncBeta(a, b, x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	lbeta := lgammaOf(a) + lgammaOf(b) - lgammaOf(a+b)
	front := math.Exp(a*math.Log(x) + b*math.Log(1-x) - lbeta)
	if x < (a+1)/(a+b+2) {
		return front * betaCF(a, b, x) / a
	}
	return 1 - front*betaCF(b, a, 1-x)/b
}

func lgammaOf(x float64) float64 {
	v, _ := math.Lgamma(x)
	return v
}

// betaCF evaluates the continued fraction for the incomplete beta function
// (Lentz's algorithm).
func betaCF(a, b, x float64) float64 {
	const tiny = 1e-300
	qab, qap, qam := a+b, a+1, a-1
	c := 1.0
	d := 1 - qab*x/qap
	if math.Abs(d) < tiny {
		d = tiny
	}
	d = 1 / d
	h := d
	for m := 1; m <= gammaMaxIter; m++ {
		m2 := float64(2 * m)
		aa := float64(m) * (b - float64(m)) * x / ((qam + m2) * (a + m2))
		d = 1 + aa*d
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = 1 + aa/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		h *= d * c
		aa = -(a + float64(m)) * (qab + float64(m)) * x / ((a + m2) * (qap + m2))
		d = 1 + aa*d
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = 1 + aa/c
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
	return h
}
