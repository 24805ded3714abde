package sim

import (
	"math"
	"testing"

	"ramsis/internal/core"
	"ramsis/internal/dist"
	"ramsis/internal/lb"
	"ramsis/internal/monitor"
	"ramsis/internal/profile"
	"ramsis/internal/trace"
)

// ramsisFixture generates one shared policy set for the scheduler tests.
func ramsisFixture(t *testing.T, workers int, slo float64, loads []float64) *core.PolicySet {
	t.Helper()
	base := core.Config{
		Models:  profile.ImageSet(),
		SLO:     slo,
		Workers: workers,
		Arrival: dist.NewPoisson(1), // replaced per-load
		D:       50,
	}
	ps := core.NewPolicySet(base, nil)
	if err := ps.GenerateLoads(loads); err != nil {
		t.Fatal(err)
	}
	return ps
}

func TestRAMSISSchedulerServesEverything(t *testing.T) {
	const workers, slo, load = 8, 0.150, 300.0
	ps := ramsisFixture(t, workers, slo, []float64{load})
	tr := trace.Constant(load, 20)
	sched := NewRAMSIS(ps, monitor.Oracle{Trace: tr})
	e := NewEngine(profile.ImageSet(), slo, workers, Deterministic{}, sched, 1)
	arr := trace.PoissonArrivals(tr, 7)
	m := e.Run(arr)
	if m.Unserved != 0 {
		t.Fatalf("RAMSIS left %d queries unserved", m.Unserved)
	}
	if m.Served != len(arr) {
		t.Fatalf("served %d of %d", m.Served, len(arr))
	}
	if vr := m.ViolationRate(); vr > 0.05 {
		t.Errorf("violation rate %v above 5%% at satisfiable load", vr)
	}
	if acc := m.AccuracyPerSatisfiedQuery(); acc < 0.60 {
		t.Errorf("accuracy %v implausibly low", acc)
	}
}

func TestRAMSISBeatsFixedFastModelAccuracy(t *testing.T) {
	// At moderate load, exploiting lulls must beat always running the
	// throughput-safe fastest model.
	const workers, slo, load = 8, 0.150, 250.0
	ps := ramsisFixture(t, workers, slo, []float64{load})
	tr := trace.Constant(load, 20)
	arr := trace.PoissonArrivals(tr, 11)

	eR := NewEngine(profile.ImageSet(), slo, workers, Deterministic{}, NewRAMSIS(ps, monitor.Oracle{Trace: tr}), 1)
	mR := eR.Run(arr)

	eF := NewEngine(profile.ImageSet(), slo, workers, Deterministic{}, &FixedModel{Model: 0, MaxBatch: 8}, 1)
	mF := eF.Run(arr)

	if mR.AccuracyPerSatisfiedQuery() <= mF.AccuracyPerSatisfiedQuery() {
		t.Errorf("RAMSIS accuracy %v not above fastest-model accuracy %v",
			mR.AccuracyPerSatisfiedQuery(), mF.AccuracyPerSatisfiedQuery())
	}
	if mR.ViolationRate() > 0.05 {
		t.Errorf("RAMSIS violation rate %v above threshold", mR.ViolationRate())
	}
}

func TestRAMSISFidelityExpectationVsSimulation(t *testing.T) {
	// §7.3.1 / Fig. 7: simulated accuracy and violation rate should track
	// the policy's §5.1 expectations, with expected accuracy a lower bound
	// and expected violation an upper bound (within sampling noise).
	const workers, slo, load = 8, 0.150, 300.0
	ps := ramsisFixture(t, workers, slo, []float64{load})
	pol := ps.Policies()[0]
	tr := trace.Constant(load, 60)
	sched := NewRAMSIS(ps, monitor.Oracle{Trace: tr})
	e := NewEngine(profile.ImageSet(), slo, workers, Deterministic{}, sched, 1)
	m := e.Run(trace.PoissonArrivals(tr, 13))

	simAcc := m.AccuracyPerSatisfiedQuery()
	if simAcc < pol.ExpectedAccuracy-0.02 {
		t.Errorf("simulated accuracy %v well below expectation %v (should be a lower bound)",
			simAcc, pol.ExpectedAccuracy)
	}
	if simAcc > pol.ExpectedAccuracy+0.06 {
		t.Errorf("simulated accuracy %v far above expectation %v; expectation too loose",
			simAcc, pol.ExpectedAccuracy)
	}
	simViol := m.ViolationRate()
	if simViol > pol.ExpectedViolation+0.02 {
		t.Errorf("simulated violation %v above expectation %v (should be an upper bound)",
			simViol, pol.ExpectedViolation)
	}
}

func TestRAMSISImplementationVariantAtLeastSimulation(t *testing.T) {
	// §7.3.1: with latency variance, realized latencies are usually below
	// the p95 profile, so the stochastic ("implementation") variant should
	// achieve accuracy at least about the deterministic simulation's.
	const workers, slo, load = 8, 0.150, 300.0
	ps := ramsisFixture(t, workers, slo, []float64{load})
	tr := trace.Constant(load, 30)
	arr := trace.PoissonArrivals(tr, 17)

	eSim := NewEngine(profile.ImageSet(), slo, workers, Deterministic{}, NewRAMSIS(ps, monitor.Oracle{Trace: tr}), 1)
	mSim := eSim.Run(arr)
	eImp := NewEngine(profile.ImageSet(), slo, workers, Stochastic{StdDev: 0.010}, NewRAMSIS(ps, monitor.Oracle{Trace: tr}), 1)
	mImp := eImp.Run(arr)

	if mImp.AccuracyPerSatisfiedQuery() < mSim.AccuracyPerSatisfiedQuery()-0.01 {
		t.Errorf("implementation accuracy %v below simulation %v",
			mImp.AccuracyPerSatisfiedQuery(), mSim.AccuracyPerSatisfiedQuery())
	}
}

func TestRAMSISPolicySwitchingUnderLoadChange(t *testing.T) {
	// With a moving-average monitor and a load step, the scheduler must
	// switch policies rather than panic or stall.
	const workers, slo = 8, 0.150
	ps := ramsisFixture(t, workers, slo, []float64{100, 200, 300, 400})
	step := trace.Trace{IntervalSec: 10, QPS: []float64{100, 380, 150}}
	sched := NewRAMSIS(ps, monitor.NewMovingAverage(0.5))
	e := NewEngine(profile.ImageSet(), slo, workers, Deterministic{}, sched, 1)
	m := e.Run(trace.PoissonArrivals(step, 23))
	if m.Unserved != 0 {
		t.Fatalf("unserved %d", m.Unserved)
	}
	if vr := m.ViolationRate(); vr > 0.08 {
		t.Errorf("violation rate %v too high across load step", vr)
	}
}

func TestRAMSISRoundRobinBalance(t *testing.T) {
	const workers = 4
	ps := ramsisFixture(t, workers, 0.150, []float64{100})
	sched := NewRAMSIS(ps, monitor.NewMovingAverage(0.5))
	e := NewEngine(profile.ImageSet(), 0.150, workers, Deterministic{}, sched, 1)
	e.begin()
	// Route 8 arrivals without dispatching (inspect queues directly).
	for i := 0; i < 8; i++ {
		e.route(Query{ID: i})
	}
	for w := 0; w < workers; w++ {
		if got := len(e.wq[w]); got != 2 {
			t.Errorf("worker %d queue = %d, want 2 (round-robin)", w, got)
		}
	}
	if len(e.central) != 0 {
		t.Error("round-robin left queries in the central queue")
	}
}

func TestRAMSISHigherSLOGivesHigherAccuracy(t *testing.T) {
	const workers, load = 8, 300.0
	tr := trace.Constant(load, 20)
	arr := trace.PoissonArrivals(tr, 29)
	accs := map[float64]float64{}
	for _, slo := range []float64{0.150, 0.500} {
		ps := ramsisFixture(t, workers, slo, []float64{load})
		e := NewEngine(profile.ImageSet(), slo, workers, Deterministic{}, NewRAMSIS(ps, monitor.Oracle{Trace: tr}), 1)
		accs[slo] = e.Run(arr).AccuracyPerSatisfiedQuery()
	}
	if accs[0.500] <= accs[0.150] {
		t.Errorf("accuracy at 500ms (%v) not above 150ms (%v)", accs[0.500], accs[0.150])
	}
	if math.IsNaN(accs[0.500]) {
		t.Fatal("NaN accuracy")
	}
}

func TestRAMSISShortestQueueFirstRouting(t *testing.T) {
	const workers = 3
	ps := ramsisFixture(t, workers, 0.150, []float64{100})
	sched := NewRAMSIS(ps, monitor.NewMovingAverage(0.5))
	sched.LB = BalancerFor(core.ShortestQueueFirst, 1)
	e := NewEngine(profile.ImageSet(), 0.150, workers, Deterministic{}, sched, 1)
	e.begin()
	// Pre-load queues unevenly, then route: the arrival must join the
	// shortest queue.
	e.enqueue(0, Query{ID: 100})
	e.enqueue(0, Query{ID: 101})
	e.enqueue(1, Query{ID: 102})
	e.route(Query{ID: 0})
	if got := len(e.wq[2]); got != 1 {
		t.Errorf("SQF routed to worker with len %d; queue lengths: %d %d %d",
			got, len(e.wq[0]), len(e.wq[1]), len(e.wq[2]))
	}
	// Next arrival ties between workers 1 and 2 (len 1 each): either is
	// acceptable, but it must not join worker 0 (len 2).
	e.route(Query{ID: 1})
	if len(e.wq[0]) != 2 {
		t.Errorf("SQF joined the longest queue")
	}
}

func TestRAMSISEndToEndWithSQF(t *testing.T) {
	const workers, slo, load = 4, 0.150, 120.0
	base := core.Config{
		Models:    profile.ImageSet(),
		SLO:       slo,
		Workers:   workers,
		Arrival:   dist.NewPoisson(1),
		D:         50,
		Balancing: core.ShortestQueueFirst,
	}
	set := core.NewPolicySet(base, nil)
	if err := set.GenerateLoads([]float64{load}); err != nil {
		t.Fatal(err)
	}
	tr := trace.Constant(load, 20)
	sched := NewRAMSIS(set, monitor.Oracle{Trace: tr})
	sched.LB = BalancerFor(core.ShortestQueueFirst, 1)
	e := NewEngine(profile.ImageSet(), slo, workers, Deterministic{}, sched, 1)
	m := e.Run(trace.PoissonArrivals(tr, 19))
	if m.Unserved != 0 {
		t.Fatalf("unserved %d", m.Unserved)
	}
	if vr := m.ViolationRate(); vr > 0.05 {
		t.Errorf("SQF violation rate %v at sub-critical load", vr)
	}
}

func TestRAMSISPowerOfTwoRouting(t *testing.T) {
	const workers = 4
	ps := ramsisFixture(t, workers, 0.150, []float64{100})
	sched := NewRAMSIS(ps, monitor.NewMovingAverage(0.5))
	sched.LB = BalancerFor(core.PowerOfTwoChoices, 1)
	e := NewEngine(profile.ImageSet(), 0.150, workers, Deterministic{}, sched, 1)
	e.begin()
	// One empty worker among loaded ones: P2C must never join the longest
	// queue when it samples the empty worker, so across many routes the
	// empty worker takes a clear plurality.
	for i := 0; i < 5; i++ {
		for w := 0; w < 3; w++ {
			e.enqueue(w, Query{ID: 100*(w+1) + i})
		}
	}
	for i := 0; i < 40; i++ {
		e.route(Query{ID: i})
	}
	routed3 := len(e.wq[3])
	if routed3 < 10 {
		t.Errorf("P2C routed only %d/40 to the drained worker; queues: %d %d %d %d",
			routed3, len(e.wq[0]), len(e.wq[1]), len(e.wq[2]), len(e.wq[3]))
	}
	if len(e.central) != 0 {
		t.Error("P2C left queries in the central queue")
	}
}

// TestBalancingNamesBuildTheirBalancer walks the one table of balancer
// names: every -lb spelling core.ParseBalancing accepts, through
// BalancerFor, to the balancer it names; and unknown names are errors.
func TestBalancingNamesBuildTheirBalancer(t *testing.T) {
	for _, c := range []struct {
		arg  string
		want core.Balancing
		name string
	}{
		{"", core.RoundRobin, "rr"}, {"rr", core.RoundRobin, "rr"},
		{"round-robin", core.RoundRobin, "rr"}, {"roundrobin", core.RoundRobin, "rr"},
		{"jsq", core.ShortestQueueFirst, "jsq"}, {"shortest-queue", core.ShortestQueueFirst, "jsq"},
		{"sqf", core.ShortestQueueFirst, "jsq"},
		{"p2c", core.PowerOfTwoChoices, "p2c"}, {"power-of-two", core.PowerOfTwoChoices, "p2c"},
		{"poweroftwo", core.PowerOfTwoChoices, "p2c"},
	} {
		b, err := core.ParseBalancing(c.arg)
		if err != nil {
			t.Fatalf("ParseBalancing(%q): %v", c.arg, err)
		}
		if b != c.want {
			t.Errorf("ParseBalancing(%q) = %v, want %v", c.arg, b, c.want)
		}
		if got := BalancerFor(b, 1).Name(); got != c.name {
			t.Errorf("BalancerFor(ParseBalancing(%q)).Name() = %s, want %s", c.arg, got, c.name)
		}
	}
	for _, bad := range []string{"bogus", "RR", "jsq ", "hash"} {
		if _, err := core.ParseBalancing(bad); err == nil {
			t.Errorf("ParseBalancing(%q) accepted an unknown strategy", bad)
		}
	}
}

// fixedModelLB is a minimal per-worker-queue scheme for balancer
// comparisons: it routes through an lb.Balancer and serves one query at a
// time on a fixed model, so the measured difference is the balancer's
// alone (no model-selection or batching confound).
func fixedModelLB(model string, bal lb.Balancer) Scheme {
	return Scheme{Balancer: bal, Select: func(float64, float64, int, float64) (string, int) { return model, 1 }}
}

func TestJSQNoWorseThanRoundRobinOnBurstyTrace(t *testing.T) {
	// The ISSUE-1 acceptance criterion: at equal load on a bursty on-off
	// MMPP arrival pattern, queue-aware balancing achieves a violation
	// rate no worse than round-robin's. The decisive case is a straggler:
	// one worker runs 1.5x slower (the degraded-replica scenario
	// queue-aware balancers exist for), and round-robin keeps feeding it
	// its full 1/K share while JSQ and P2C route around the backlog.
	//
	// Note the homogeneous-cluster result is the opposite and is worth
	// stating: with identical workers, deterministic round-robin spread
	// is already near-optimal and JSQ's count-equalization buys nothing
	// (it can even lose slightly under maximal batching, where letting
	// queues differ grows more efficient batches). The balancer choice
	// matters when workers diverge, which in production they do.
	models := profile.ImageSet()
	mi := -1
	for i, p := range models.Profiles {
		if p.Name == "shufflenet_v2_x0_5" {
			mi = i
		}
	}
	if mi < 0 {
		t.Fatal("fixed model missing from image set")
	}
	const workers, slo = 6, 0.150
	mu := 1 / models.Profiles[mi].BatchLatency(1)
	load := 0.7 * float64(workers) * mu
	wp := make([]profile.Set, workers)
	for i := range wp {
		wp[i] = models
	}
	wp[0] = models.ScaleLatency(1.5) // the straggler
	tr := trace.Constant(load, 30)
	// 2.5x-rate bursts of mean 50 ms separated by mean-200 ms lulls (the
	// misspecification study's "burstier than assumed" pattern); the same
	// arrival realization feeds every balancer.
	arr := trace.Arrivals(tr, 13, func(r float64) dist.Sampler { return dist.NewOnOff(r, 2.5, 0.05, 0.2) })
	run := func(bal lb.Balancer) Metrics {
		e := NewEngine(models, slo, workers, Stochastic{StdDev: 0.010}, fixedModelLB(models.Profiles[mi].Name, bal), 1)
		e.WorkerProfiles = wp
		return e.Run(arr)
	}
	rr := run(lb.NewRoundRobin())
	jsq := run(lb.NewJoinShortestQueue())
	p2c := run(lb.NewPowerOfTwoChoices(1))
	if rr.Served != len(arr) || jsq.Served != len(arr) || p2c.Served != len(arr) {
		t.Fatalf("served rr=%d jsq=%d p2c=%d of %d", rr.Served, jsq.Served, p2c.Served, len(arr))
	}
	if rr.ViolationRate() == 0 {
		t.Fatal("straggler not slow enough: round-robin has zero violations, comparison is vacuous")
	}
	if jsq.ViolationRate() > rr.ViolationRate() {
		t.Errorf("JSQ violation rate %.5f above round-robin's %.5f on bursty trace",
			jsq.ViolationRate(), rr.ViolationRate())
	}
	if p2c.ViolationRate() > rr.ViolationRate() {
		t.Errorf("P2C violation rate %.5f above round-robin's %.5f on bursty trace",
			p2c.ViolationRate(), rr.ViolationRate())
	}
}

func TestHeterogeneousWorkers(t *testing.T) {
	// Two worker hardware types: workers 0-1 standard, workers 2-3 twice as
	// slow. Each gets a policy generated from its own latency profiles.
	const totalWorkers, slo, load = 4, 0.300, 100.0
	fastSet := profile.ImageSet()
	slowSet := fastSet.ScaleLatency(2)

	mkSet := func(models profile.Set) *core.PolicySet {
		ps := core.NewPolicySet(core.Config{
			Models:  models,
			SLO:     slo,
			Workers: totalWorkers,
			Arrival: dist.NewPoisson(1),
			D:       50,
		}, nil)
		if err := ps.GenerateLoads([]float64{load}); err != nil {
			t.Fatal(err)
		}
		return ps
	}
	fastPS, slowPS := mkSet(fastSet), mkSet(slowSet)

	// The slow type's policy must be more conservative at the same state.
	fp, _ := fastPS.PolicyFor(load)
	sp, _ := slowPS.PolicyFor(load)
	fAcc, _ := fastSet.ByName(fp.Select(4, slo).Model)
	sAcc, _ := slowSet.ByName(sp.Select(4, slo).Model)
	if sAcc.Accuracy > fAcc.Accuracy {
		t.Errorf("slow worker policy picked a more accurate model (%s) than the fast one (%s)",
			sAcc.Name, fAcc.Name)
	}

	tr := trace.Constant(load, 20)
	sched := NewHeteroRAMSIS([]*core.PolicySet{fastPS, fastPS, slowPS, slowPS}, monitor.Oracle{Trace: tr})
	e := NewEngine(fastSet, slo, totalWorkers, Deterministic{}, sched, 1)
	e.WorkerProfiles = []profile.Set{fastSet, fastSet, slowSet, slowSet}
	m := e.Run(trace.PoissonArrivals(tr, 41))
	if m.Unserved != 0 {
		t.Fatalf("unserved %d", m.Unserved)
	}
	if vr := m.ViolationRate(); vr > 0.05 {
		t.Errorf("heterogeneous violation rate %v", vr)
	}
	if acc := m.AccuracyPerSatisfiedQuery(); acc < 0.65 {
		t.Errorf("heterogeneous accuracy %v implausibly low", acc)
	}
}

func TestVerifyPolicy(t *testing.T) {
	cfg := core.Config{
		Models:  profile.ImageSet(),
		SLO:     0.150,
		Workers: 8,
		Arrival: dist.NewPoisson(300),
		D:       50,
	}
	pol, err := core.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := VerifyPolicy(pol, profile.ImageSet(), 30, 3)
	if m.Served == 0 {
		t.Fatal("verification served nothing")
	}
	if acc := m.AccuracyPerSatisfiedQuery(); acc < pol.ExpectedAccuracy-0.02 {
		t.Errorf("verified accuracy %v below the guarantee %v", acc, pol.ExpectedAccuracy)
	}
	if vr := m.ViolationRate(); vr > pol.ExpectedViolation+0.02 {
		t.Errorf("verified violations %v above the guarantee %v", vr, pol.ExpectedViolation)
	}
}
