package dist

import (
	"math"
	"testing"
)

func TestKthArrivalPDFPoissonIsErlang(t *testing.T) {
	p := NewPoisson(100)
	for k := 1; k <= 5; k++ {
		for _, x := range []float64{0.001, 0.01, 0.1} {
			got := p.KthArrivalPDF(k, x)
			want := ErlangPDF(k, 100, x)
			if math.Abs(got-want) > 1e-12 {
				t.Errorf("KthArrivalPDF(%d, %v) = %g, want %g", k, x, got, want)
			}
		}
	}
}

func TestKthArrivalPDFIntegratesToTail(t *testing.T) {
	// Integral of f_k over (0, T] must equal P[k-th arrival <= T]
	// = P[N(T) >= k].
	p := NewPoisson(200)
	const T = 0.05
	const n = 100000
	h := T / n
	for _, k := range []int{1, 3, 10} {
		sum := 0.0
		for i := 0; i < n; i++ {
			sum += p.KthArrivalPDF(k, (float64(i)+0.5)*h)
		}
		got := sum * h
		want := PoissonTail(k, 200*T)
		if math.Abs(got-want) > 1e-5 {
			t.Errorf("k=%d: integral %g, want %g", k, got, want)
		}
	}
}

func TestKthArrivalTableMatchesDirect(t *testing.T) {
	p := NewPoisson(1500)
	const cells, kmax = 64, 40
	const delta = 0.5 / cells
	table := KthArrivalTable(p, kmax, cells, delta)
	for g := 0; g < cells; g += 7 {
		tg := (float64(g) + 0.5) * delta
		for k := 1; k <= kmax; k += 5 {
			want := p.KthArrivalPDF(k, tg)
			got := table[g][k-1]
			if want == 0 {
				if got > 1e-250 {
					t.Errorf("table[%d][%d] = %g, want ~0", g, k-1, got)
				}
				continue
			}
			if math.Abs(got-want)/want > 1e-9 {
				t.Errorf("table[%d][%d] = %g, want %g", g, k-1, got, want)
			}
		}
	}
}

func TestKthArrivalTableGamma(t *testing.T) {
	g := NewGamma(800, 3)
	table := KthArrivalTable(g, 10, 32, 0.001)
	for gi := 0; gi < 32; gi += 5 {
		tg := (float64(gi) + 0.5) * 0.001
		for k := 1; k <= 10; k++ {
			want := g.KthArrivalPDF(k, tg)
			got := table[gi][k-1]
			if want > 1e-200 && math.Abs(got-want)/want > 1e-9 {
				t.Errorf("gamma table[%d][%d] = %g, want %g", gi, k-1, got, want)
			}
		}
	}
}

func TestRegIncBetaKnownValues(t *testing.T) {
	// I_x(1, 1) = x (uniform CDF).
	for _, x := range []float64{0, 0.25, 0.5, 0.9, 1} {
		if got := RegIncBeta(1, 1, x); math.Abs(got-x) > 1e-12 {
			t.Errorf("I_%v(1,1) = %g, want %v", x, got, x)
		}
	}
	// I_x(2, 1) = x^2.
	if got := RegIncBeta(2, 1, 0.3); math.Abs(got-0.09) > 1e-12 {
		t.Errorf("I_0.3(2,1) = %g, want 0.09", got)
	}
	// Symmetry: I_x(a,b) = 1 - I_{1-x}(b,a).
	for _, c := range []struct{ a, b, x float64 }{{3, 7, 0.2}, {10, 2, 0.8}, {50, 60, 0.45}} {
		l := RegIncBeta(c.a, c.b, c.x)
		r := 1 - RegIncBeta(c.b, c.a, 1-c.x)
		if math.Abs(l-r) > 1e-10 {
			t.Errorf("symmetry broken at %+v: %g vs %g", c, l, r)
		}
	}
}
