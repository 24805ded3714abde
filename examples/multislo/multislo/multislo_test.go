package multislo

import (
	"testing"

	"ramsis/internal/profile"
)

func classes() []Class {
	return []Class{
		{Name: "interactive", SLO: 0.150, Workers: 5, Share: 0.5},
		{Name: "relaxed", SLO: 0.500, Workers: 5, Share: 0.5},
	}
}

func TestNewValidation(t *testing.T) {
	models := profile.ImageSet()
	if _, err := New(models, nil, 25); err == nil {
		t.Error("empty classes accepted")
	}
	bad := classes()
	bad[0].Share = 0.9 // shares sum to 1.4
	if _, err := New(models, bad, 25); err == nil {
		t.Error("mis-summed shares accepted")
	}
	bad = classes()
	bad[1].SLO = 0
	if _, err := New(models, bad, 25); err == nil {
		t.Error("zero SLO accepted")
	}
	if _, err := New(models, classes(), 25); err != nil {
		t.Errorf("valid classes rejected: %v", err)
	}
}

func TestMultiSLOServing(t *testing.T) {
	models := profile.ImageSet()
	s, err := New(models, classes(), 25)
	if err != nil {
		t.Fatal(err)
	}
	const totalLoad = 300.0
	res, err := s.Run(totalLoad, 20, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("results for %d classes, want 2", len(res))
	}
	for name, m := range res {
		if m.Served == 0 || m.Unserved != 0 {
			t.Fatalf("class %s: %+v", name, m)
		}
		if vr := m.ViolationRate(); vr > 0.05 {
			t.Errorf("class %s violation rate %v", name, vr)
		}
	}
	// Same per-worker load in both classes, but the relaxed SLO admits the
	// large EfficientNets, so its accuracy must be at least the
	// interactive class's.
	if res["relaxed"].AccuracyPerSatisfiedQuery() < res["interactive"].AccuracyPerSatisfiedQuery() {
		t.Errorf("relaxed class accuracy %.4f below interactive %.4f",
			res["relaxed"].AccuracyPerSatisfiedQuery(),
			res["interactive"].AccuracyPerSatisfiedQuery())
	}
	// All arrivals accounted for across classes.
	total := res["relaxed"].Served + res["interactive"].Served
	if total == 0 || total < int(totalLoad*20)*9/10 || total > int(totalLoad*20)*11/10 {
		t.Errorf("total served %d far from expected ~%d", total, int(totalLoad*20))
	}
}

func TestClassPolicyUsesShare(t *testing.T) {
	models := profile.ImageSet()
	s, err := New(models, classes(), 25)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Precompute(400); err != nil {
		t.Fatal(err)
	}
	pol, err := s.ClassPolicy(0, 400)
	if err != nil {
		t.Fatal(err)
	}
	if pol.Load != 200 {
		t.Errorf("class policy load = %v, want the class share 200", pol.Load)
	}
	if pol.SLO != 0.150 {
		t.Errorf("class policy SLO = %v", pol.SLO)
	}
}
