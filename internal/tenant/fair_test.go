package tenant

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"ramsis/internal/admit"
)

// shedAll is an inner admitter that rejects everything.
type shedAll struct{}

func (shedAll) Admit(admit.Request) admit.Verdict { return admit.Verdict{RetryAfter: 0.5} }
func (shedAll) Name() string                      { return "shedall" }

func newFair(t *testing.T, ts []Tenant, cfg FairConfig, inner admit.Admitter) (*Registry, *FairAdmitter) {
	t.Helper()
	r, err := NewRegistry(ts)
	if err != nil {
		t.Fatal(err)
	}
	return r, NewFairAdmitter(r, inner, cfg)
}

// tally counts one tenant's verdicts by their Reason.
type tally map[admit.Reason]int

// admitted counts the fair and borrowed admits.
func (t tally) admitted() int { return t[admit.ReasonFair] + t[admit.ReasonBorrowed] }

// offered counts every verdict.
func (t tally) offered() int {
	n := 0
	for _, c := range t {
		n += c
	}
	return n
}

// offer runs per-tenant deterministic arrival streams through f for dur
// modeled seconds and tallies each tenant's verdicts. rates maps tenant to
// offered QPS; arrivals are evenly spaced with a per-tenant phase so
// streams interleave.
func offer(f *FairAdmitter, rates map[string]float64, dur float64) map[string]tally {
	type ev struct {
		t  float64
		tn string
	}
	var evs []ev
	i := 0
	for tn, r := range rates {
		phase := float64(i) * 1e-4
		for t := phase; t < dur; t += 1 / r {
			evs = append(evs, ev{t, tn})
		}
		i++
	}
	sort.Slice(evs, func(i, j int) bool {
		if evs[i].t != evs[j].t {
			return evs[i].t < evs[j].t
		}
		return evs[i].tn < evs[j].tn
	})
	tallies := map[string]tally{}
	for _, e := range evs {
		if tallies[e.tn] == nil {
			tallies[e.tn] = tally{}
		}
		tallies[e.tn][f.Admit(e.tn, admit.Request{Now: e.t}).Reason]++
	}
	return tallies
}

func TestFairAdmitsWithinShare(t *testing.T) {
	_, f := newFair(t, threeTenants(), FairConfig{}, nil)
	// Everyone offers exactly their contracted rate: nothing is shed.
	tallies := offer(f, map[string]float64{"interactive": 100, "standard": 50, "batch": 50}, 10)
	for tn, c := range tallies {
		if c[admit.ReasonOverShare] != 0 {
			t.Errorf("%s: %d over-share sheds at contracted rate", tn, c[admit.ReasonOverShare])
		}
		if c.admitted() == 0 {
			t.Errorf("%s: nothing admitted", tn)
		}
	}
}

func TestFairSharesFollowWeights(t *testing.T) {
	// Capacity 100, weights 3:1, borrowing off; both tenants offer 100 QPS.
	ts := []Tenant{
		{Name: "heavy", SLOMS: 200, Weight: 3, RateQPS: 75},
		{Name: "light", SLOMS: 200, Weight: 1, RateQPS: 25},
	}
	_, f := newFair(t, ts, FairConfig{CapacityQPS: 100, NoBorrow: true, BurstSec: 0.5}, nil)
	if got := f.Share("heavy"); got != 75 {
		t.Fatalf("Share(heavy) = %v, want 75", got)
	}
	tallies := offer(f, map[string]float64{"heavy": 100, "light": 100}, 20)
	// Steady-state admitted rate ≈ share; allow the initial burst plus slack.
	for tn, share := range map[string]float64{"heavy": 75, "light": 25} {
		got := float64(tallies[tn].admitted())
		want := share * 20
		if got < want*0.9 || got > want*1.15 {
			t.Errorf("%s admitted %v, want ≈ %v (weighted share)", tn, got, want)
		}
	}
}

func TestOverloaderShedBeforeCompliantTenant(t *testing.T) {
	// The PR's core fairness claim: "standard" offers 4× its contract;
	// "interactive" and "batch" stay compliant and keep goodput ≥ 0.9.
	_, f := newFair(t, threeTenants(), FairConfig{}, nil)
	tallies := offer(f, map[string]float64{"interactive": 100, "standard": 200, "batch": 50}, 30)
	for _, tn := range []string{"interactive", "batch"} {
		c := tallies[tn]
		frac := float64(c.admitted()) / float64(c.offered())
		if frac < 0.9 {
			t.Errorf("compliant tenant %s admitted fraction %.3f < 0.9 (reasons %v)", tn, frac, c)
		}
	}
	over := tallies["standard"]
	if over[admit.ReasonOverShare] == 0 {
		t.Error("4× tenant never shed over-share")
	}
	// The overloader still makes progress (starvation-free)...
	if over.admitted() == 0 {
		t.Error("4× tenant starved")
	}
	// ...but is clamped near its fair share plus the startup bursts (its
	// own bucket and the plane's both start full), not its offered rate.
	if got, limit := float64(over.admitted()), 50.0*30+600; got > limit {
		t.Errorf("4× tenant admitted %v, want ≲ %v (fair share + startup bursts)", got, limit)
	}
}

func TestBorrowingIsWorkConserving(t *testing.T) {
	// Only the overloader offers traffic: the plane is otherwise idle, so
	// its excess should be admitted (borrowed), not shed.
	_, f := newFair(t, threeTenants(), FairConfig{}, nil)
	c := offer(f, map[string]float64{"standard": 150}, 20)["standard"]
	if c[admit.ReasonBorrowed] == 0 {
		t.Fatalf("no borrowing on an idle plane: %v", c)
	}
	frac := float64(c.admitted()) / float64(c.offered())
	if frac < 0.95 {
		t.Errorf("idle-plane admitted fraction %.3f < 0.95 (%v)", frac, c)
	}
	// With NoBorrow the same offered stream is clamped to the fair share.
	_, nf := newFair(t, threeTenants(), FairConfig{NoBorrow: true}, nil)
	nb := offer(nf, map[string]float64{"standard": 150}, 20)["standard"]
	if nb.admitted() >= c.admitted() {
		t.Errorf("NoBorrow admitted %d ≥ borrow %d", nb.admitted(), c.admitted())
	}
}

func TestBorrowReserveKeepsSlotsForFairTraffic(t *testing.T) {
	// Inner cap of 10 outstanding, reserving 6 slots for within-share
	// traffic: a borrower is cut off once 4 slots fill, while fair-share
	// admits see the full cap.
	cap := admit.Cap{Limit: 10}
	_, f := newFair(t, threeTenants(), FairConfig{BorrowReserve: 6}, cap)

	// Drain the overloader's own bucket so its next admits must borrow.
	for f.Admit("standard", admit.Request{Now: 0}).Reason == admit.ReasonFair {
	}
	if v := f.Admit("standard", admit.Request{Now: 0, Outstanding: 3}); !v.Admit || v.Reason != admit.ReasonBorrowed {
		t.Fatalf("borrow below reserve boundary: %+v", v)
	}
	if v := f.Admit("standard", admit.Request{Now: 0, Outstanding: 4}); v.Admit {
		t.Fatalf("borrow at reserve boundary admitted: %+v", v)
	}
	// A within-share tenant still has the reserved slots.
	if v := f.Admit("interactive", admit.Request{Now: 0, Outstanding: 9}); !v.Admit || v.Reason != admit.ReasonFair {
		t.Fatalf("fair admit inside reserve: %+v", v)
	}
	if v := f.Admit("interactive", admit.Request{Now: 0, Outstanding: 10}); v.Admit {
		t.Fatalf("fair admit above inner cap: %+v", v)
	}
}

func TestInnerAdmitterStillGates(t *testing.T) {
	_, f := newFair(t, threeTenants(), FairConfig{}, shedAll{})
	v := f.Admit("interactive", admit.Request{Now: 0})
	if v.Admit || v.Reason != admit.ReasonInner {
		t.Errorf("verdict %+v, want inner shed", v)
	}
	if v.RetryAfter != 0.5 {
		t.Errorf("inner RetryAfter not propagated: %v", v.RetryAfter)
	}
}

func TestUnknownTenantShed(t *testing.T) {
	_, f := newFair(t, threeTenants(), FairConfig{}, nil)
	v := f.Admit("ghost", admit.Request{Now: 0})
	if v.Admit || v.Reason != admit.ReasonUnknown {
		t.Errorf("verdict %+v, want unknown_tenant shed", v)
	}
}

func TestEmptyNameUsesDefaultTenant(t *testing.T) {
	r, err := NewRegistry([]Tenant{{Name: DefaultName, SLOMS: 200, Weight: 1, RateQPS: 100}})
	if err != nil {
		t.Fatal(err)
	}
	f := NewFairAdmitter(r, nil, FairConfig{})
	if v := f.Admit("", admit.Request{Now: 0}); !v.Admit || v.Reason != admit.ReasonFair {
		t.Errorf("verdict %+v, want default-tenant admit", v)
	}
}

// TestStarvationFreedomProperty is the satellite property test: under 4×
// aggregate overload with random positive weights, every tenant keeps
// making progress — at least half of what it could possibly admit (the
// lesser of its offered rate and its fair share), never zero.
func TestStarvationFreedomProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 10; trial++ {
		n := 2 + rng.Intn(5)
		ts := make([]Tenant, n)
		rates := map[string]float64{}
		names := []string{"alpha", "bravo", "charlie", "delta", "echo", "foxtrot"}
		for i := range ts {
			ts[i] = Tenant{
				Name:    names[i],
				SLOMS:   100 + rng.Float64()*900,
				Weight:  0.1 + rng.Float64()*9.9, // positive, spans 2 orders
				RateQPS: 5 + rng.Float64()*45,
			}
			rates[ts[i].Name] = ts[i].RateQPS * 4 // everyone overloads 4×
		}
		_, f := newFair(t, ts, FairConfig{}, nil)
		dur := 10.0
		tallies := offer(f, rates, dur)
		cap := f.capacity()
		var totW float64
		for _, tn := range ts {
			totW += tn.Weight
		}
		for _, tn := range ts {
			share := cap * tn.Weight / totW
			// Own-bucket refill guarantees the fair share regardless of the
			// others, but a tenant can never admit more than it offers.
			want := math.Min(share, rates[tn.Name]) * dur
			got := float64(tallies[tn.Name].admitted())
			if got < 0.5*want {
				t.Errorf("trial %d: tenant %s (w=%.2f, rate=%.1f) admitted %v < half of attainable %v",
					trial, tn.Name, tn.Weight, tn.RateQPS, got, want)
			}
		}
	}
}

// TestRebuildOnReloadPreservesTokens: a reload keeps a surviving tenant's
// token level, so a tenant that spent its bucket cannot refill it by
// reloading; a newcomer starts full.
func TestRebuildOnReloadPreservesTokens(t *testing.T) {
	reg, f := newFair(t, threeTenants(), FairConfig{}, nil)
	for f.Admit("interactive", admit.Request{Now: 0}).Reason == admit.ReasonFair {
	}
	ts := threeTenants()
	ts[0].Weight = 10
	ts = append(ts, Tenant{Name: "newcomer", SLOMS: 300, Weight: 1, RateQPS: 20})
	if err := reg.Reload(ts); err != nil {
		t.Fatal(err)
	}
	// Next admit notices the new generation.
	v := f.Admit("newcomer", admit.Request{Now: 0})
	if !v.Admit {
		t.Errorf("newcomer's first burst shed after reload: %+v", v)
	}
	if v := f.Admit("interactive", admit.Request{Now: 0}); v.Reason == admit.ReasonFair {
		t.Errorf("reload refilled a spent bucket: %+v", v)
	}
	if got := f.Share("interactive"); got <= f.Share("standard") {
		t.Errorf("reweighted share not applied: interactive %v ≤ standard %v", got, f.Share("standard"))
	}
}

func TestFairName(t *testing.T) {
	_, f := newFair(t, threeTenants(), FairConfig{}, admit.Cap{Limit: 4})
	if got := f.Name(); got != "fair+cap" {
		t.Errorf("Name = %q", got)
	}
}

// TestConcurrentAdmitAndReload hammers Admit from many goroutines while the
// registry reloads underneath — the -race half of the satellite test.
func TestConcurrentAdmitAndReload(t *testing.T) {
	reg, f := newFair(t, threeTenants(), FairConfig{}, nil)
	var admitters sync.WaitGroup
	var decided [4]int // verdicts carrying a Reason, per admitter
	for g := 0; g < 4; g++ {
		admitters.Add(1)
		go func(g int) {
			defer admitters.Done()
			names := []string{"interactive", "standard", "batch", "ghost"}
			for i := 0; i < 5000; i++ {
				if f.Admit(names[(g+i)%len(names)], admit.Request{Now: float64(i) * 1e-4}).Reason != "" {
					decided[g]++
				}
			}
		}(g)
	}
	stop := make(chan struct{})
	reloaderDone := make(chan error, 1)
	go func() {
		for i := 0; ; i++ {
			select {
			case <-stop:
				reloaderDone <- nil
				return
			default:
			}
			ts := threeTenants()
			ts[i%len(ts)].Weight = float64(1 + i%7)
			if err := reg.Reload(ts); err != nil {
				reloaderDone <- err
				return
			}
		}
	}()
	admitters.Wait()
	close(stop)
	if err := <-reloaderDone; err != nil {
		t.Fatal(err)
	}
	if total := decided[0] + decided[1] + decided[2] + decided[3]; total != 4*5000 {
		t.Errorf("%d of %d verdicts carry a reason", total, 4*5000)
	}
}
