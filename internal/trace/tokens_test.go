package trace

import (
	"testing"

	"ramsis/internal/dist"
)

func TestTokenArrivalsDeterministicAndAnnotated(t *testing.T) {
	tr := Constant(100, 10)
	in := dist.NewLognormalLen(200, 0.9, 8, 2048)
	out := dist.NewLognormalLen(180, 0.7, 16, 1024)

	a := TokenArrivals(tr, 3, in, out)
	b := TokenArrivals(tr, 3, in, out)
	if len(a) == 0 {
		t.Fatal("no token arrivals sampled")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d differs across identically seeded runs: %+v vs %+v", i, a[i], b[i])
		}
	}
	for i, ev := range a {
		if ev.Prefill < 1 || ev.Prefill > in.MaxLen() {
			t.Fatalf("event %d prefill %d outside [1, %d]", i, ev.Prefill, in.MaxLen())
		}
		if ev.Decode < 1 || ev.Decode > out.MaxLen() {
			t.Fatalf("event %d decode %d outside [1, %d]", i, ev.Decode, out.MaxLen())
		}
		if i > 0 && ev.T < a[i-1].T {
			t.Fatalf("arrival times not sorted at %d: %v < %v", i, ev.T, a[i-1].T)
		}
	}
}

func TestTokenArrivalTimesMatchPoissonArrivals(t *testing.T) {
	tr := Constant(200, 10)
	in := dist.NewLognormalLen(100, 0.5, 1, 512)
	out := dist.NewLognormalLen(100, 0.5, 1, 512)
	plain := PoissonArrivals(tr, 9)
	tok := TokenArrivals(tr, 9, in, out)
	if len(plain) != len(tok) {
		t.Fatalf("arrival counts differ: %d plain vs %d tokenized", len(plain), len(tok))
	}
	for i := range plain {
		if plain[i] != tok[i].T {
			t.Fatalf("arrival %d time differs: %v vs %v", i, plain[i], tok[i].T)
		}
	}
}

func TestAnnotateTokensPreservesTimes(t *testing.T) {
	times := []float64{0.5, 1.25, 7}
	in := dist.NewEmpiricalLen([]dist.LenBucket{{Lo: 3000, Hi: 3200, Weight: 1}})
	out := dist.NewEmpiricalLen([]dist.LenBucket{{Lo: 10, Hi: 20, Weight: 1}})
	evs := AnnotateTokens(times, 1, in, out)
	if len(evs) != len(times) {
		t.Fatalf("got %d events, want %d", len(evs), len(times))
	}
	for i, ev := range evs {
		if ev.T != times[i] {
			t.Fatalf("event %d time %v, want %v", i, ev.T, times[i])
		}
		if ev.Prefill < 3000 || ev.Prefill > 3200 {
			t.Fatalf("event %d prefill %d outside bucket", i, ev.Prefill)
		}
	}
}
