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

// CDFLadder evaluates rows of count CDFs P[N(t) ≤ jk − 1], j = 1..n, equal
// bit for bit to p.CDF(jk−1, t). For Poisson and Gamma arrivals each entry
// is a regularized upper incomplete gamma Q(a_j, μ) — a_j = jk, μ = λt for
// Poisson; a_j = jk·shape, μ = stage rate · t for Gamma — so lgamma(a_j) is
// tabulated once per ladder, log μ computed once per row, and once an entry
// rounds to 1 (Q rises with a) the rest of the row is 1 without evaluating.
type CDFLadder struct {
	stride int       // a_j = j·stride
	rate   float64   // μ = rate·t
	lg     []float64 // lgamma(a_j) at [j-1]
}

// NewCDFLadder returns the ladder of p's CDFs at counts jk − 1, j = 1..n.
// p must be Poisson or Gamma.
func NewCDFLadder(p Arrival, k, n int) CDFLadder {
	var l CDFLadder
	switch proc := p.(type) {
	case Poisson:
		l.stride, l.rate = k, proc.Lambda
	case Gamma:
		l.stride, l.rate = k*proc.shape, proc.rate*float64(proc.shape)
	default:
		panic("dist: CDFLadder needs Poisson or Gamma arrivals")
	}
	l.lg = make([]float64, n)
	for j := range l.lg {
		l.lg[j], _ = math.Lgamma(float64((j + 1) * l.stride))
	}
	return l
}

// Fill sets row[j-1] = P[N(t) ≤ jk − 1] for j = 1..len(row), len(row) ≤ n.
func (l CDFLadder) Fill(t float64, row []float64) {
	mu := l.rate * t
	if mu <= 0 {
		fillOnes(row)
		return
	}
	logmu := math.Log(mu)
	for j := range row {
		row[j] = incGamma(float64((j+1)*l.stride), mu, l.lg[j], logmu, false)
		if row[j] == 1 {
			fillOnes(row[j+1:])
			return
		}
	}
}

func fillOnes(s []float64) {
	for i := range s {
		s[i] = 1
	}
}

// IncBeta is the regularized incomplete beta function I_x(a, b) at fixed
// (a, b), used for Binomial tails: P[Bin(n, p) >= k] = I_p(k, n-k+1). Its
// log-beta is computed once, for callers that evaluate many x.
type IncBeta struct{ a, b, lbeta float64 }

// NewIncBeta returns I_·(a, b).
func NewIncBeta(a, b float64) IncBeta {
	return IncBeta{a, b, lgammaOf(a) + lgammaOf(b) - lgammaOf(a+b)}
}

// At returns I_x(a, b).
func (ib IncBeta) At(x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	a, b := ib.a, ib.b
	front := math.Exp(a*math.Log(x) + b*math.Log(1-x) - ib.lbeta)
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
