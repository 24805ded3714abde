package resource

import (
	"testing"

	"ramsis/internal/core"
	"ramsis/internal/dist"
	"ramsis/internal/profile"
	"ramsis/internal/trace"
)

func req() Requirements {
	return Requirements{SLO: 0.150, MaxViolation: 0.02, D: 20}
}

func TestMinWorkersFindsSmallFeasible(t *testing.T) {
	models := profile.ImageSet()
	plan, err := MinWorkers(models, req(), 100, 16)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Workers < 2 || plan.Workers > 6 {
		t.Errorf("plan = %d workers for 100 QPS, expected a handful", plan.Workers)
	}
	if plan.Policy == nil || plan.Policy.ExpectedViolation > 0.02 {
		t.Errorf("plan policy does not meet the violation bound: %+v", plan.Policy.ExpectedViolation)
	}
	// Minimality: one fewer worker must not meet the requirements. (Checked
	// via the plan's own search invariant: the binary search only returns w
	// when w-1 failed or w == 1.)
	if plan.Workers > 1 {
		smaller, err := MinWorkers(models, req(), 100, plan.Workers-1)
		if err == nil && smaller.Workers < plan.Workers {
			t.Errorf("found a smaller feasible plan (%d) than reported minimum (%d)",
				smaller.Workers, plan.Workers)
		}
	}
}

func TestMinWorkersAccuracyTargetNeedsMore(t *testing.T) {
	models := profile.ImageSet()
	base, err := MinWorkers(models, req(), 150, 12)
	if err != nil {
		t.Fatal(err)
	}
	strict := req()
	strict.MinAccuracy = 0.75
	withAcc, err := MinWorkers(models, strict, 150, 12)
	if err != nil {
		t.Fatal(err)
	}
	if withAcc.Workers < base.Workers {
		t.Errorf("accuracy target yielded fewer workers (%d) than no target (%d)",
			withAcc.Workers, base.Workers)
	}
	if withAcc.Policy.ExpectedAccuracy < 0.75 {
		t.Errorf("plan accuracy %.4f below target", withAcc.Policy.ExpectedAccuracy)
	}
}

func TestMinWorkersInfeasible(t *testing.T) {
	models := profile.ImageSet()
	if _, err := MinWorkers(models, req(), 5000, 2); err == nil {
		t.Error("5000 QPS on 2 workers should be infeasible")
	}
	if _, err := MinWorkers(models, req(), 100, 0); err == nil {
		t.Error("maxWorkers 0 should error")
	}
}

func TestStaticPlanUsesPeak(t *testing.T) {
	models := profile.ImageSet()
	tr := trace.Trace{IntervalSec: 10, QPS: []float64{100, 250, 200}}
	static, err := StaticPlan(models, req(), tr, 12)
	if err != nil {
		t.Fatal(err)
	}
	peakOnly, err := MinWorkers(models, req(), 250, 12)
	if err != nil {
		t.Fatal(err)
	}
	if static.Workers != peakOnly.Workers {
		t.Errorf("static plan %d != peak plan %d", static.Workers, peakOnly.Workers)
	}
}

func TestAutoscaleSavesOverStatic(t *testing.T) {
	models := profile.ImageSet()
	// A strongly diurnal trace: most intervals far below peak.
	tr := trace.Trace{IntervalSec: 10, QPS: []float64{80, 80, 100, 350, 100, 80}}
	sched, err := Autoscale(models, req(), tr, 16, 1.1)
	if err != nil {
		t.Fatal(err)
	}
	if len(sched.Workers) != len(tr.QPS) {
		t.Fatalf("schedule covers %d intervals, want %d", len(sched.Workers), len(tr.QPS))
	}
	static, err := StaticPlan(models, req(), tr, 16)
	if err != nil {
		t.Fatal(err)
	}
	if sched.Peak() > static.Workers+1 {
		t.Errorf("autoscale peak %d far above static %d", sched.Peak(), static.Workers)
	}
	if sched.MeanWorkers() >= float64(static.Workers) {
		t.Errorf("autoscaling mean %.1f does not save over static %d",
			sched.MeanWorkers(), static.Workers)
	}
	// The burst interval must be provisioned above the idle ones.
	if sched.Workers[3] <= sched.Workers[0] {
		t.Errorf("burst interval not scaled up: %v", sched.Workers)
	}
}

func TestAutoscaleValidation(t *testing.T) {
	models := profile.ImageSet()
	tr := trace.Constant(100, 10)
	if _, err := Autoscale(models, req(), tr, 16, 0.5); err == nil {
		t.Error("headroom < 1 accepted")
	}
}

func TestSelectModels(t *testing.T) {
	models := profile.ImageSet()
	r := req()
	r.MaxViolation = 0.05
	const workers, load = 8, 250.0
	set3, pol3, err := SelectModels(models, r, load, workers, 3)
	if err != nil {
		t.Fatal(err)
	}
	if set3.Len() > 3 || set3.Len() < 1 {
		t.Fatalf("selected %d models, want 1..3", set3.Len())
	}
	// The fastest model must always be loaded (forced fallback).
	if _, ok := set3.ByName(models.Fastest().Name); !ok {
		t.Error("fastest model not selected")
	}
	// More budget never hurts.
	_, pol1, err := SelectModels(models, r, load, workers, 1)
	if err != nil {
		t.Fatal(err)
	}
	if pol3.ExpectedAccuracy < pol1.ExpectedAccuracy-1e-9 {
		t.Errorf("3-model accuracy %v below 1-model %v", pol3.ExpectedAccuracy, pol1.ExpectedAccuracy)
	}
	// Fig. 12's insight: a small set retains most of the full set's value.
	fullPol, err := core.Generate(core.Config{
		Models: models, SLO: r.SLO, Workers: workers,
		Arrival: dist.NewPoisson(load), D: r.D,
	})
	if err != nil {
		t.Fatal(err)
	}
	if pol3.ExpectedAccuracy < fullPol.ExpectedAccuracy-0.05 {
		t.Errorf("3-model accuracy %v far below full-set %v", pol3.ExpectedAccuracy, fullPol.ExpectedAccuracy)
	}
	if _, _, err := SelectModels(models, r, load, workers, 0); err == nil {
		t.Error("k=0 accepted")
	}
}
