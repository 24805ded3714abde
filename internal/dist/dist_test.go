package dist

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestPoissonPMFSmallValues(t *testing.T) {
	// Hand-checked values for mu = 2.
	cases := []struct {
		k    int
		want float64
	}{
		{0, math.Exp(-2)},
		{1, 2 * math.Exp(-2)},
		{2, 2 * math.Exp(-2)},
		{3, 4.0 / 3.0 * math.Exp(-2)},
	}
	for _, c := range cases {
		got := PoissonPMF(c.k, 2)
		if !almostEqual(got, c.want, 1e-12) {
			t.Errorf("PoissonPMF(%d, 2) = %g, want %g", c.k, got, c.want)
		}
	}
}

func TestPoissonPMFEdgeCases(t *testing.T) {
	if got := PoissonPMF(0, 0); got != 1 {
		t.Errorf("PoissonPMF(0,0) = %g, want 1", got)
	}
	if got := PoissonPMF(3, 0); got != 0 {
		t.Errorf("PoissonPMF(3,0) = %g, want 0", got)
	}
	if got := PoissonPMF(-1, 5); got != 0 {
		t.Errorf("PoissonPMF(-1,5) = %g, want 0", got)
	}
	// Negative mean treated as zero.
	if got := PoissonPMF(0, -3); got != 1 {
		t.Errorf("PoissonPMF(0,-3) = %g, want 1", got)
	}
}

func TestPoissonPMFSumsToOne(t *testing.T) {
	for _, mu := range []float64{0.1, 1, 7.5, 40, 300} {
		sum := 0.0
		limit := int(mu + 20*math.Sqrt(mu) + 20)
		for k := 0; k <= limit; k++ {
			sum += PoissonPMF(k, mu)
		}
		if !almostEqual(sum, 1, 1e-9) {
			t.Errorf("sum of PoissonPMF over k for mu=%v = %g, want 1", mu, sum)
		}
	}
}

func TestPoissonCDFMatchesPMFSum(t *testing.T) {
	for _, mu := range []float64{0.5, 3, 25, 120} {
		sum := 0.0
		for k := 0; k <= 200; k++ {
			sum += PoissonPMF(k, mu)
			cdf := PoissonCDF(k, mu)
			if !almostEqual(sum, cdf, 1e-9) {
				t.Fatalf("mu=%v k=%d: pmf sum %g != cdf %g", mu, k, sum, cdf)
			}
		}
	}
}

func TestPoissonCDFMonotonic(t *testing.T) {
	f := func(rawMu float64, rawK uint8) bool {
		mu := math.Abs(rawMu)
		if mu > 1e6 || math.IsNaN(mu) {
			return true
		}
		k := int(rawK % 100)
		a := PoissonCDF(k, mu)
		b := PoissonCDF(k+1, mu)
		return b+1e-12 >= a && a >= -1e-12 && b <= 1+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPoissonTailComplementsCDF(t *testing.T) {
	for _, mu := range []float64{0.2, 4, 60} {
		for k := 0; k < 50; k++ {
			tail := PoissonTail(k, mu)
			cdf := PoissonCDF(k-1, mu)
			if !almostEqual(tail+cdf, 1, 1e-9) {
				t.Fatalf("mu=%v k=%d: tail %g + cdf %g != 1", mu, k, tail, cdf)
			}
		}
	}
}

func TestPoissonArrivalInterface(t *testing.T) {
	var a Arrival = NewPoisson(100)
	if a.Rate() != 100 {
		t.Fatalf("Rate = %v, want 100", a.Rate())
	}
	// PF over an interval of 10ms with rate 100 has mean 1.
	if got, want := a.PF(0, 0.01), math.Exp(-1); !almostEqual(got, want, 1e-12) {
		t.Errorf("PF(0, 0.01) = %g, want %g", got, want)
	}
	if got := a.PF(0, -1); got != 1 {
		t.Errorf("PF(0, -1) = %g, want 1 (negative t treated as 0)", got)
	}
}

func TestNewPoissonPanicsOnBadRate(t *testing.T) {
	for _, bad := range []float64{0, -5, math.Inf(1), math.NaN()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewPoisson(%v) did not panic", bad)
				}
			}()
			NewPoisson(bad)
		}()
	}
}

// erlangCDF is P[S <= t] for S the sum of shape i.i.d. Exp(rate) variables:
// the probability that a Poisson(rate·t) count is at least shape.
func erlangCDF(shape int, rate, t float64) float64 { return PoissonTail(shape, rate*t) }

func TestErlangCDFProperties(t *testing.T) {
	if got := erlangCDF(0, 5, 1); got != 1 {
		t.Errorf("erlangCDF(0,...) = %g, want 1", got)
	}
	if got := erlangCDF(3, 5, 0); got != 0 {
		t.Errorf("erlangCDF(3,5,0) = %g, want 0", got)
	}
	// Erlang(1, rate) is exponential.
	for _, x := range []float64{0.1, 0.5, 2} {
		want := 1 - math.Exp(-5*x)
		if got := erlangCDF(1, 5, x); !almostEqual(got, want, 1e-10) {
			t.Errorf("erlangCDF(1,5,%v) = %g, want %g", x, got, want)
		}
	}
	// CDF decreasing in shape for fixed t (more stages take longer).
	for shape := 1; shape < 20; shape++ {
		a := erlangCDF(shape, 10, 1)
		b := erlangCDF(shape+1, 10, 1)
		if b > a+1e-12 {
			t.Fatalf("ErlangCDF not decreasing in shape at %d: %g -> %g", shape, a, b)
		}
	}
}

func TestErlangPDFIntegratesToCDF(t *testing.T) {
	// Trapezoidal integration of the pdf should match the CDF.
	const shape, rate = 4, 20.0
	const upper = 1.0
	const n = 200000
	h := upper / n
	sum := 0.0
	for i := 0; i <= n; i++ {
		w := 1.0
		if i == 0 || i == n {
			w = 0.5
		}
		sum += w * ErlangPDF(shape, rate, float64(i)*h)
	}
	got := sum * h
	want := erlangCDF(shape, rate, upper)
	if !almostEqual(got, want, 1e-6) {
		t.Errorf("integral of pdf = %g, want cdf %g", got, want)
	}
}

func TestGammaPFShapeOneIsPoisson(t *testing.T) {
	g := NewGamma(50, 1)
	p := NewPoisson(50)
	for k := 0; k < 20; k++ {
		for _, tt := range []float64{0.01, 0.1, 0.5} {
			if got, want := g.PF(k, tt), p.PF(k, tt); !almostEqual(got, want, 1e-9) {
				t.Fatalf("Gamma(shape=1).PF(%d,%v) = %g, want Poisson %g", k, tt, got, want)
			}
		}
	}
}

func TestGammaPFSumsToOne(t *testing.T) {
	for _, shape := range []int{1, 2, 4} {
		g := NewGamma(100, shape)
		for _, tt := range []float64{0.01, 0.1, 1} {
			sum := 0.0
			for k := 0; k < 400; k++ {
				sum += g.PF(k, tt)
			}
			if !almostEqual(sum, 1, 1e-8) {
				t.Errorf("Gamma(shape=%d).PF sum at t=%v = %g, want 1", shape, tt, sum)
			}
		}
	}
}

func TestGammaCDFConsistentWithPF(t *testing.T) {
	g := NewGamma(200, 3)
	for _, tt := range []float64{0.005, 0.05} {
		sum := 0.0
		for k := 0; k < 60; k++ {
			sum += g.PF(k, tt)
			if got := g.CDF(k, tt); !almostEqual(got, sum, 1e-9) {
				t.Fatalf("Gamma CDF(%d, %v) = %g, want pmf sum %g", k, tt, got, sum)
			}
		}
	}
}

func TestPoissonSamplerMeanRate(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	p := NewPoisson(1000)
	const n = 200000
	total := 0.0
	for i := 0; i < n; i++ {
		total += p.NextInterarrival(rng)
	}
	gotRate := n / total
	if math.Abs(gotRate-1000) > 20 {
		t.Errorf("sampled rate = %g, want ~1000", gotRate)
	}
}

func TestGammaSamplerMeanRateAndVariance(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := NewGamma(500, 4)
	const n = 200000
	xs := make([]float64, n)
	total := 0.0
	for i := range xs {
		xs[i] = g.NextInterarrival(rng)
		total += xs[i]
	}
	mean := total / n
	if math.Abs(1/mean-500) > 15 {
		t.Errorf("sampled rate = %g, want ~500", 1/mean)
	}
	varSum := 0.0
	for _, x := range xs {
		varSum += (x - mean) * (x - mean)
	}
	variance := varSum / n
	// Erlang(4, 2000): variance = 4 / 2000^2.
	want := 4.0 / (2000 * 2000)
	if math.Abs(variance-want)/want > 0.05 {
		t.Errorf("sampled variance = %g, want ~%g", variance, want)
	}
}

func TestIndependentIncrementsFactorization(t *testing.T) {
	// For a Poisson process, P[kA in TA] * P[kB in TB] must equal the joint
	// computed over disjoint intervals — sanity for the §4.4.2 property used
	// to build transition probabilities.
	p := NewPoisson(300)
	joint := p.PF(2, 0.01) * p.PF(3, 0.02)
	// Equivalent: total 5 arrivals in 0.03 with a Binomial split.
	total := p.PF(5, 0.03)
	binom := 0.0
	// C(5,2) (1/3)^2 (2/3)^3
	binom = 10 * math.Pow(1.0/3, 2) * math.Pow(2.0/3, 3)
	if !almostEqual(joint, total*binom, 1e-12) {
		t.Errorf("independent increments factorization broken: %g vs %g", joint, total*binom)
	}
}

func TestOnOffSamplerMeanRate(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	o := NewOnOff(1000, 3, 0.2, 0.8)
	const n = 300000
	total := 0.0
	for i := 0; i < n; i++ {
		total += o.NextInterarrival(rng)
	}
	rate := n / total
	if math.Abs(rate-1000)/1000 > 0.03 {
		t.Errorf("OnOff mean rate = %v, want ~1000", rate)
	}
}

func TestOnOffBurstierThanPoisson(t *testing.T) {
	// Count-variance test: per-100ms window counts should be overdispersed
	// relative to Poisson (variance > mean).
	rng := rand.New(rand.NewSource(17))
	o := NewOnOff(1000, 3, 0.2, 0.8)
	const windows = 4000
	const win = 0.1
	counts := make([]float64, windows)
	tNow, w := 0.0, 0
	for w < windows {
		tNow += o.NextInterarrival(rng)
		idx := int(tNow / win)
		if idx >= windows {
			break
		}
		counts[idx]++
		w = idx
	}
	mean, variance := meanVar(counts)
	if variance < 1.5*mean {
		t.Errorf("OnOff window counts not overdispersed: mean %v variance %v", mean, variance)
	}
}

func meanVar(xs []float64) (float64, float64) {
	m := 0.0
	for _, x := range xs {
		m += x
	}
	m /= float64(len(xs))
	v := 0.0
	for _, x := range xs {
		v += (x - m) * (x - m)
	}
	return m, v / float64(len(xs))
}

func TestOnOffValidation(t *testing.T) {
	for _, f := range []func(){
		func() { NewOnOff(0, 2, 1, 1) },
		func() { NewOnOff(100, 1, 1, 1) },
		func() { NewOnOff(100, 10, 1, 1) }, // burst exceeds the budget
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}
