package trace

import (
	"math"
	"testing"
)

func TestTwitterTraceCharacteristics(t *testing.T) {
	tr := Twitter()
	if got := tr.Duration(); got != 300 {
		t.Errorf("duration = %v s, want 300 (5 minutes)", got)
	}
	if got := tr.MinQPS(); got != 1617 {
		t.Errorf("min QPS = %v, want 1617", got)
	}
	if got := tr.MaxQPS(); got != 3905 {
		t.Errorf("max QPS = %v, want 3905", got)
	}
	if tr.IntervalSec != 10 {
		t.Errorf("interval = %v s, want 10 (artifact trace format)", tr.IntervalSec)
	}
	// Deterministic.
	tr2 := Twitter()
	for i := range tr.QPS {
		if tr.QPS[i] != tr2.QPS[i] {
			t.Fatalf("Twitter trace not deterministic at interval %d", i)
		}
	}
}

func TestTwitterTraceHasVariation(t *testing.T) {
	tr := Twitter()
	// A diurnal trace must not be flat; require meaningful spread.
	if tr.MaxQPS()/tr.MinQPS() < 2 {
		t.Errorf("trace spread %v-%v too flat", tr.MinQPS(), tr.MaxQPS())
	}
	// Spikes: at least one interval should jump >15%% versus its neighbor.
	jump := false
	for i := 1; i < len(tr.QPS); i++ {
		if tr.QPS[i] > tr.QPS[i-1]*1.15 {
			jump = true
		}
	}
	if !jump {
		t.Error("trace has no load spikes")
	}
}

func TestConstantTrace(t *testing.T) {
	tr := Constant(800, 30)
	if tr.Duration() != 30 {
		t.Errorf("duration = %v, want 30", tr.Duration())
	}
	for _, q := range tr.QPS {
		if q != 800 {
			t.Fatalf("constant trace has load %v", q)
		}
	}
	if tr.MeanQPS() != 800 {
		t.Errorf("mean = %v, want 800", tr.MeanQPS())
	}
}

// TestConstantLastsItsDuration checks that a constant trace whose duration
// is not a multiple of ten seconds ends at that duration: it lasts 2 s and
// samples no arrival at or after 2 s, about 400 at 200 QPS. A duration that
// is not positive and finite has no trace and panics.
func TestConstantLastsItsDuration(t *testing.T) {
	tr := Constant(200, 2)
	if tr.Duration() != 2 {
		t.Errorf("duration = %v, want 2", tr.Duration())
	}
	arr := PoissonArrivals(tr, 1)
	if n := len(arr); n < 300 || n > 500 {
		t.Errorf("%d arrivals in 2 s at 200 QPS", n)
	}
	for _, a := range arr {
		if a >= 2 {
			t.Fatalf("arrival at %v, past the 2 s trace", a)
		}
	}
	// Durations of whole tens keep their ten-second intervals.
	if tr := Constant(200, 30); tr.IntervalSec != 10 || len(tr.QPS) != 3 {
		t.Errorf("Constant(200, 30) = %d intervals of %v s, want 3 of 10 s", len(tr.QPS), tr.IntervalSec)
	}
	for _, bad := range []float64{0, -3, math.Inf(1), math.NaN()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Constant(200, %v) did not panic", bad)
				}
			}()
			Constant(200, bad)
		}()
	}
}

func TestScaleAndTruncate(t *testing.T) {
	tr := Twitter()
	half := tr.Scale(0.5)
	if got, want := half.MaxQPS(), tr.MaxQPS()/2; math.Abs(got-want) > 1e-9 {
		t.Errorf("scaled max = %v, want %v", got, want)
	}
	short := tr.Truncate(60)
	if short.Duration() != 60 {
		t.Errorf("truncated duration = %v, want 60", short.Duration())
	}
	if short.QPS[0] != tr.QPS[0] {
		t.Error("truncate changed interval loads")
	}
	// Truncating beyond the end is a no-op.
	if got := tr.Truncate(1e6).Duration(); got != tr.Duration() {
		t.Errorf("over-truncate duration = %v, want %v", got, tr.Duration())
	}
}

func TestQPSAt(t *testing.T) {
	tr := Trace{IntervalSec: 10, QPS: []float64{100, 200, 300}}
	cases := []struct {
		t    float64
		want float64
	}{{0, 100}, {9.99, 100}, {10, 200}, {25, 300}, {1000, 300}, {-5, 100}}
	for _, c := range cases {
		if got := tr.QPSAt(c.t); got != c.want {
			t.Errorf("QPSAt(%v) = %v, want %v", c.t, got, c.want)
		}
	}
}

func TestPoissonArrivalsMatchLoad(t *testing.T) {
	tr := Constant(2000, 30)
	arr := PoissonArrivals(tr, 1)
	want := 2000.0 * 30
	if math.Abs(float64(len(arr))-want)/want > 0.03 {
		t.Errorf("sampled %d arrivals, want ~%v", len(arr), want)
	}
	// Sorted, in range.
	for i, a := range arr {
		if a < 0 || a >= 30 {
			t.Fatalf("arrival %d at %v outside trace", i, a)
		}
		if i > 0 && a < arr[i-1] {
			t.Fatalf("arrivals not sorted at %d", i)
		}
	}
}

func TestArrivalsDeterministicPerSeed(t *testing.T) {
	tr := Twitter().Truncate(30)
	a := PoissonArrivals(tr, 7)
	b := PoissonArrivals(tr, 7)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("arrival %d differs", i)
		}
	}
	c := PoissonArrivals(tr, 8)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("different seeds produced identical arrivals")
	}
}

func TestTwitterArrivalCountNearPaper(t *testing.T) {
	// The paper samples 554,395 total queries from the 5-minute trace.
	arr := PoissonArrivals(Twitter(), 42)
	mean := Twitter().MeanQPS() * 300
	if math.Abs(float64(len(arr))-mean)/mean > 0.02 {
		t.Errorf("arrivals %d deviate from trace mean %v", len(arr), mean)
	}
	if len(arr) < 450000 || len(arr) > 650000 {
		t.Errorf("total arrivals %d outside the paper's ballpark (~554k)", len(arr))
	}
}

func TestGammaArrivalsLessBursty(t *testing.T) {
	// Erlang(4) inter-arrivals have lower variance than Poisson at the same
	// rate; check the coefficient of variation ordering.
	tr := Constant(1000, 30)
	cv := func(arr []float64) float64 {
		var gaps []float64
		for i := 1; i < len(arr); i++ {
			gaps = append(gaps, arr[i]-arr[i-1])
		}
		m, s := meanStd(gaps)
		return s / m
	}
	p := cv(PoissonArrivals(tr, 3))
	g := cv(GammaArrivals(tr, 3, 4))
	if g >= p {
		t.Errorf("Gamma(4) CV %v not below Poisson CV %v", g, p)
	}
}

func meanStd(xs []float64) (float64, float64) {
	m := 0.0
	for _, x := range xs {
		m += x
	}
	m /= float64(len(xs))
	v := 0.0
	for _, x := range xs {
		v += (x - m) * (x - m)
	}
	return m, math.Sqrt(v / float64(len(xs)))
}

func TestEmptyTrace(t *testing.T) {
	tr := Trace{IntervalSec: 10}
	if tr.Duration() != 0 || tr.MeanQPS() != 0 || tr.QPSAt(5) != 0 {
		t.Error("empty trace should be inert")
	}
	if got := PoissonArrivals(tr, 1); len(got) != 0 {
		t.Errorf("empty trace produced %d arrivals", len(got))
	}
}
