package dist

import (
	"math"
	"slices"
	"testing"
)

// The incomplete-gamma kernel computes its prefactor before its loop, from a
// caller's lgamma(a) and log x, and exits early where the result is already
// decided; the CDF ladder shares those values across a row and stops
// evaluating once the row saturates. Neither may move a bit. These tests pin
// both against a copy of the loop-first evaluation they replaced, which
// computed lgamma(a), log x and the prefactor inside each call, after the
// loop, and ran every loop to convergence.

func loopFirstGammaSeries(a, x float64) float64 {
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

func loopFirstGammaContinuedFraction(a, x float64) float64 {
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

func loopFirstGammaP(a, x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x < a+1 {
		return loopFirstGammaSeries(a, x)
	}
	return 1 - loopFirstGammaContinuedFraction(a, x)
}

func loopFirstGammaQ(a, x float64) float64 {
	if x <= 0 {
		return 1
	}
	if x < a+1 {
		return 1 - loopFirstGammaSeries(a, x)
	}
	return loopFirstGammaContinuedFraction(a, x)
}

// loopFirstCDF is p.CDF(count, t) for count >= 0, evaluated loop-first.
func loopFirstCDF(p Arrival, count int, t float64) float64 {
	switch p := p.(type) {
	case Poisson:
		if mu := p.Lambda * t; mu > 0 {
			return loopFirstGammaQ(float64(count)+1, mu)
		}
		return 1
	case Gamma:
		if t <= 0 {
			return 1
		}
		if mu := p.rate * float64(p.shape) * t; mu > 0 {
			return loopFirstGammaQ(float64((count+1)*p.shape-1)+1, mu)
		}
		return 1
	}
	panic("loopFirstCDF: unsupported process")
}

// checkLadderRow fills a ladder row of n entries for p at counts jk − 1 and
// compares every entry, and the kernel's P and Q at each entry's (a, μ), with
// the loop-first evaluation, Float64bits for Float64bits. μ = t: the processes
// it is called with have unit (stage) rate.
func checkLadderRow(t *testing.T, p Arrival, k, n int, mu float64) {
	t.Helper()
	row := make([]float64, n)
	NewCDFLadder(p, k, n).Fill(mu, row)
	stride := k
	if g, ok := p.(Gamma); ok {
		stride *= g.shape
	}
	for j := 1; j <= n; j++ {
		want := loopFirstCDF(p, j*k-1, mu)
		if got := row[j-1]; math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%T k=%d n=%d μ=%g: entry j=%d = %v (%#x), loop-first %v (%#x)",
				p, k, n, mu, j, got, math.Float64bits(got), want, math.Float64bits(want))
		}
		a := float64(j * stride)
		if got, want := regularizedGammaQ(a, mu), loopFirstGammaQ(a, mu); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("Q(%v, %g) = %v, loop-first %v", a, mu, got, want)
		}
		if got, want := regularizedGammaP(a, mu), loopFirstGammaP(a, mu); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("P(%v, %g) = %v, loop-first %v", a, mu, got, want)
		}
	}
	// The variable-batching build stops its count loop where the row first
	// reaches 1 (core's variableTransitions), which is exact only if every
	// later entry is 1 too.
	if one := slices.Index(row, 1); one >= 0 {
		for j, v := range row[one:] {
			if v != 1 {
				t.Fatalf("%T k=%d n=%d μ=%g: entry j=%d = %v after the first 1 at j=%d", p, k, n, mu, one+j+1, v, one+1)
			}
		}
	}
}

// ladderProcess returns the unit-rate process of the given shape: Poisson(1)
// for shape 1, else the Erlang-shape renewal process with stage rate 1.
func ladderProcess(shape int) Arrival {
	if shape == 1 {
		return NewPoisson(1)
	}
	return NewGamma(1/float64(shape), shape)
}

// TestCDFLadderMatchesLoopFirstKernel walks ladder strides 1, 2, 80 and 160
// (Poisson at K = 1, 2, 80, 160; Erlang-2 at K = 1, 40, 80) over rows of 40
// at μ = 0, two subnormals, every entry's jK − 1 and its neighbours ±1 (the
// series / continued-fraction switch and the saturation edge), and far past
// saturation on either side.
func TestCDFLadderMatchesLoopFirstKernel(t *testing.T) {
	const n = 40
	for _, c := range []struct{ shape, k int }{
		{1, 1}, {1, 2}, {1, 80}, {1, 160}, {2, 1}, {2, 40}, {2, 80},
	} {
		p := ladderProcess(c.shape)
		stride := c.k * c.shape
		mus := []float64{0, 5e-324, 1e-310, 1e-3, 0.5, 1e6, 1e300}
		for j := 1; j <= n; j++ {
			m := float64(j*stride - 1)
			mus = append(mus, m-1, m, m+1)
		}
		for _, mu := range mus {
			checkLadderRow(t, p, c.k, n, mu)
		}
	}
}

// FuzzPoissonCDFLadder is the same comparison at any fan-out K ≤ 160, row
// length n ≤ 40, Poisson (shape 1) or Erlang-2 (shape 2) arrivals and mean
// μ. Each byte argument is taken as 1 + (v−1) mod its range, so the seeds
// read as written.
func FuzzPoissonCDFLadder(f *testing.F) {
	for _, s := range []struct {
		k, shape, n uint8
		mu          float64
	}{
		{1, 1, 40, 0}, {2, 1, 40, 5e-324}, {1, 1, 40, 1e-3}, {80, 1, 40, 79},
		{80, 1, 40, 1599}, {160, 1, 40, 318}, {80, 2, 40, 159}, {40, 2, 40, 1e-3},
		{1, 1, 40, 37.5}, {80, 1, 12, 1e6}, {2, 2, 40, 121},
	} {
		f.Add(s.k, s.shape, s.n, s.mu)
	}
	f.Fuzz(func(t *testing.T, k, shape, n uint8, mu float64) {
		if math.IsNaN(mu) || math.IsInf(mu, 0) {
			t.Skip("μ must be finite")
		}
		checkLadderRow(t, ladderProcess(1+int(shape-1)%2), 1+int(k-1)%160, 1+int(n-1)%40, mu)
	})
}
