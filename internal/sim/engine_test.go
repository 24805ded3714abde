package sim

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"ramsis/internal/admit"
	"ramsis/internal/lb"
	"ramsis/internal/llm"
	"ramsis/internal/monitor"
	"ramsis/internal/profile"
	"ramsis/internal/sched"
	"ramsis/internal/telemetry"
	"ramsis/internal/trace"
)

func imageProfiles() profile.Set { return profile.ImageSet() }

func TestFixedModelSingleQuery(t *testing.T) {
	ps := imageProfiles()
	fast := 0 // shufflenet_v2_x0_5 is first
	e := NewEngine(ps, 0.150, 1, Deterministic{}, &FixedModel{Model: fast, MaxBatch: 8}, 1)
	m := e.Run([]float64{0})
	if m.Served != 1 || m.Violations != 0 {
		t.Fatalf("metrics = %+v, want 1 served 0 violations", m)
	}
	want := ps.Profiles[fast].Accuracy
	if math.Abs(m.AccuracyPerSatisfiedQuery()-want) > 1e-12 {
		t.Errorf("accuracy = %v, want %v", m.AccuracyPerSatisfiedQuery(), want)
	}
	if m.Decisions != 1 {
		t.Errorf("decisions = %d, want 1", m.Decisions)
	}
}

func TestDeadlineMissDetected(t *testing.T) {
	ps := imageProfiles()
	slow, _ := indexOf(ps, "efficientnet_v2_s")
	// SLO below the model's batch-1 latency: every query misses.
	e := NewEngine(ps, 0.050, 1, Deterministic{}, &FixedModel{Model: slow, MaxBatch: 1}, 1)
	m := e.Run([]float64{0, 0.001, 0.002})
	if m.Served != 3 || m.Violations != 3 {
		t.Fatalf("metrics = %+v, want 3 served 3 violations", m)
	}
	if m.ViolationRate() != 1 {
		t.Errorf("violation rate = %v, want 1", m.ViolationRate())
	}
	if m.AccuracyPerSatisfiedQuery() != 0 {
		t.Errorf("accuracy with no satisfied queries = %v, want 0", m.AccuracyPerSatisfiedQuery())
	}
}

func TestQueueingDelayCountsAgainstSLO(t *testing.T) {
	ps := imageProfiles()
	fast := 0
	l1 := ps.Profiles[fast].BatchLatency(1)
	// Two simultaneous arrivals, one worker, batch cap 1: second query waits
	// a full service time. SLO between 1x and 2x latency => one violation.
	slo := 1.5 * l1
	e := NewEngine(ps, slo, 1, Deterministic{}, &FixedModel{Model: fast, MaxBatch: 1}, 1)
	m := e.Run([]float64{0, 0})
	if m.Served != 2 || m.Violations != 1 {
		t.Fatalf("metrics = %+v, want 2 served 1 violation", m)
	}
}

func TestBatchingServesTogether(t *testing.T) {
	ps := imageProfiles()
	fast := 0
	e := NewEngine(ps, 1.0, 1, Deterministic{}, &FixedModel{Model: fast, MaxBatch: 8}, 1)
	// Occupy the worker, letting 5 queries accumulate, then they batch.
	m := e.Run([]float64{0, 0.001, 0.002, 0.003, 0.004, 0.005})
	if m.Decisions != 2 {
		t.Fatalf("decisions = %d, want 2 (1 then batch of 5)", m.Decisions)
	}
	if m.Served != 6 || m.Violations != 0 {
		t.Fatalf("metrics = %+v", m)
	}
}

func TestConservationAllQueriesAccounted(t *testing.T) {
	ps := imageProfiles()
	arr := trace.PoissonArrivals(trace.Constant(300, 10), 3)
	e := NewEngine(ps, 0.150, 8, Deterministic{}, &FixedModel{Model: 0, MaxBatch: 16}, 1)
	m := e.Run(arr)
	if m.Served+m.Unserved != len(arr) {
		t.Fatalf("served %d + unserved %d != arrivals %d", m.Served, m.Unserved, len(arr))
	}
	if m.Unserved != 0 {
		t.Errorf("eager scheduler left %d queries unserved", m.Unserved)
	}
	total := 0
	for _, c := range m.ModelCounts {
		total += c
	}
	if total != m.Served {
		t.Errorf("model counts total %d != served %d", total, m.Served)
	}
}

func TestDeterministicReplay(t *testing.T) {
	ps := imageProfiles()
	arr := trace.PoissonArrivals(trace.Constant(500, 10), 9)
	run := func() Metrics {
		e := NewEngine(ps, 0.150, 4, Stochastic{StdDev: 0.010}, &FixedModel{Model: 0, MaxBatch: 8}, 42)
		return e.Run(arr)
	}
	a, b := run(), run()
	if a.Served != b.Served || a.Violations != b.Violations || a.SatAccSum != b.SatAccSum {
		t.Error("simulation not deterministic for fixed seed")
	}
}

func TestStochasticLatencyDistribution(t *testing.T) {
	ps := imageProfiles()
	p := ps.Profiles[0]
	s := Stochastic{StdDev: 0.010}
	rng := rand.New(rand.NewSource(5))
	const n = 20000
	var below, sum float64
	for i := 0; i < n; i++ {
		v := s.Latency(p, 1, rng)
		sum += v
		if v <= p.BatchLatency(1) {
			below++
		}
		if v < p.BatchLatency(1)*0.25-1e-12 {
			t.Fatalf("sampled latency %v under floor", v)
		}
	}
	// The profile is the p95: ~95% of samples below it.
	frac := below / n
	if frac < 0.93 || frac > 0.97 {
		t.Errorf("fraction below p95 = %v, want ~0.95", frac)
	}
	mean := sum / n
	want := p.BatchLatency(1) - 1.645*s.EffectiveStdDev(p.BatchLatency(1))
	if math.Abs(mean-want) > 0.001 {
		t.Errorf("mean latency %v, want ~%v", mean, want)
	}
}

func TestCollectLatencies(t *testing.T) {
	ps := imageProfiles()
	e := NewEngine(ps, 0.5, 2, Deterministic{}, &FixedModel{Model: 0, MaxBatch: 4}, 1)
	e.CollectLatencies = true
	m := e.Run([]float64{0, 0.01, 0.02})
	if len(m.Latencies) != 3 {
		t.Fatalf("collected %d latencies, want 3", len(m.Latencies))
	}
	for _, l := range m.Latencies {
		if l < ps.Profiles[0].BatchLatency(1)-1e-9 {
			t.Errorf("response latency %v below service latency", l)
		}
	}
}

func TestEngineRejectsZeroWorkers(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewEngine(0 workers) did not panic")
		}
	}()
	NewEngine(imageProfiles(), 0.1, 0, Deterministic{}, &FixedModel{}, 1)
}

func indexOf(s profile.Set, name string) (int, bool) {
	for i, p := range s.Profiles {
		if p.Name == name {
			return i, true
		}
	}
	return 0, false
}

func TestDropExpiredQueries(t *testing.T) {
	ps := imageProfiles()
	slow, _ := indexOf(ps, "efficientnet_v2_s")
	// One worker, slow model, tight SLO: a burst overwhelms it. With
	// DropExpired, already-late queries are discarded instead of served.
	arr := make([]float64, 20)
	for i := range arr {
		arr[i] = float64(i) * 0.001
	}
	run := func(drop bool) Metrics {
		e := NewEngine(ps, 0.300, 1, Deterministic{}, &FixedModel{Model: slow, MaxBatch: 1}, 1)
		e.DropExpired = drop
		return e.Run(arr)
	}
	noDrop := run(false)
	withDrop := run(true)
	if noDrop.Dropped != 0 {
		t.Fatalf("drops recorded with DropExpired off: %d", noDrop.Dropped)
	}
	if withDrop.Dropped == 0 {
		t.Fatal("no drops under overload with DropExpired on")
	}
	if withDrop.Served+withDrop.Dropped != len(arr) {
		t.Fatalf("accounting: served %d + dropped %d != %d", withDrop.Served, withDrop.Dropped, len(arr))
	}
	// Dropped queries count against the violation rate.
	if withDrop.ViolationRate() == 0 {
		t.Error("drops not reflected in the violation rate")
	}
	// Serving late (no drop) serves everything; dropping serves fewer.
	if noDrop.Served != len(arr) || withDrop.Served >= noDrop.Served {
		t.Errorf("served: noDrop %d, withDrop %d", noDrop.Served, withDrop.Served)
	}
}

func TestDropExpiredLeavesTimelyQueries(t *testing.T) {
	ps := imageProfiles()
	e := NewEngine(ps, 0.500, 2, Deterministic{}, &FixedModel{Model: 0, MaxBatch: 4}, 1)
	e.DropExpired = true
	m := e.Run([]float64{0, 0.01, 0.02, 0.03})
	if m.Dropped != 0 || m.Served != 4 || m.Violations != 0 {
		t.Errorf("timely workload affected by DropExpired: %+v", m)
	}
}

// shortestChecked is JSQ that checks, at every pick, that the worker it
// picked has a truly shortest backlog: lengths left stale by a drop would
// misroute it.
type shortestChecked struct {
	t     *testing.T
	e     *Engine
	picks int
}

func (s *shortestChecked) Name() string { return "jsq" }

func (s *shortestChecked) Pick(lens []int, healthy []bool) int {
	w := lb.NewJoinShortestQueue().Pick(lens, healthy)
	shortest := math.MaxInt
	for v := range s.e.wq {
		shortest = min(shortest, len(s.e.wq[v])+len(s.e.inflight[v].queries))
	}
	if got := len(s.e.wq[w]) + len(s.e.inflight[w].queries); got != shortest {
		s.t.Errorf("pick %d: JSQ joined worker %d with %d outstanding, shortest has %d", s.picks, w, got, shortest)
	}
	s.picks++
	return w
}

// TestDropExpiredWithJSQ: drops from worker queues leave the balancer's
// lengths current. Three workers on the slowest model, one query at a
// time, take a burst that outlasts the SLO; worker 0 is three times slower,
// so most drops come off its queue, and JSQ must still join the shortest
// queue after every purge. Every query is served or dropped.
func TestDropExpiredWithJSQ(t *testing.T) {
	ps := imageProfiles()
	slow, _ := indexOf(ps, "efficientnet_v2_s")
	arr := make([]float64, 400)
	for i := range arr {
		arr[i] = float64(i) * 0.004
	}
	bal := &shortestChecked{t: t}
	e := NewEngine(ps, 0.300, 3, Deterministic{}, fixedModelLB(ps.Profiles[slow].Name, bal), 1)
	bal.e = e
	e.WorkerProfiles = []profile.Set{ps.ScaleLatency(3), ps, ps}
	e.DropExpired = true
	m := e.Run(arr)
	if m.Dropped == 0 {
		t.Fatal("no drops: the burst never overloaded the workers")
	}
	if m.Served+m.Dropped != len(arr) || m.Shed != 0 || m.Unserved != 0 {
		t.Errorf("served %d + dropped %d != offered %d (shed %d, unserved %d)", m.Served, m.Dropped, len(arr), m.Shed, m.Unserved)
	}
	if bal.picks != len(arr) {
		t.Errorf("balancer picked %d times for %d arrivals", bal.picks, len(arr))
	}
}

// TestModelCountsWithReorderedWorkerSets: the run counts queries per model
// index of each worker's own set, so a worker whose set lists the models in
// another order still credits the model it ran.
func TestModelCountsWithReorderedWorkerSets(t *testing.T) {
	ps := imageProfiles()
	rev := profile.Set{Task: ps.Task}
	for i := ps.Len() - 1; i >= 0; i-- {
		rev.Profiles = append(rev.Profiles, ps.Profiles[i])
	}
	e := NewEngine(ps, 0.150, 2, Deterministic{}, &FixedModel{Model: 0, MaxBatch: 4}, 1)
	e.WorkerProfiles = []profile.Set{ps, rev}
	m := e.Run(trace.PoissonArrivals(trace.Constant(200, 10), 5))
	name := ps.Profiles[0].Name
	if len(m.ModelCounts) != 1 || m.ModelCounts[name] != m.Served {
		t.Errorf("model counts %v, want all %d served on %s", m.ModelCounts, m.Served, name)
	}
}

// fitSlack serves the whole visible queue on the most accurate model whose
// batch latency fits the slack, else on the fastest, so batch sizes and
// models change from one dispatch to the next.
func fitSlack(models profile.Set) sched.Selector {
	return func(_, _ float64, n int, slack float64) (string, int) {
		best := models.Fastest()
		for _, p := range models.Profiles {
			if p.BatchLatency(min(n, p.MaxBatch())) <= slack && p.Accuracy > best.Accuracy {
				best = p
			}
		}
		return best.Name, n
	}
}

// jellyfishPlus is internal/baselines' Jellyfish+ (which imports this
// package): on the central queue, the most accurate model whose throughput
// within half the SLO on every worker covers the monitored load, at the
// largest batch that stays within half the SLO.
func jellyfishPlus(models profile.Set, slo float64, workers int) Scheme {
	sel := func(_, load float64, _ int, _ float64) (string, int) {
		best := models.Fastest()
		for _, p := range models.Profiles {
			fits := p.BatchLatency(1) <= slo/2 && float64(workers)*p.ThroughputWithin(slo/2) >= load
			if fits && p.Accuracy > best.Accuracy {
				best = p
			}
		}
		return best.Name, max(best.MaxBatchWithin(slo/2), 1)
	}
	return Scheme{Monitor: monitor.NewMovingAverage(0.5), Select: sel}
}

// TestEngineEventLocalDispatch steps the engine one event at a time over a
// grid of routing, latency noise, DropExpired and admission and checks,
// after every event, what offering work to one worker per event rests on:
// every lens entry is its worker's queue plus its batch in flight; no idle
// worker has work in sight (its own queue, or the central queue); the
// running Outstanding matches a recount; an event starts at most one batch;
// and a batch from the central queue goes to the lowest-index worker that
// was idle, the order a scan over every worker would take. Token-worker
// cells check the same invariants in the token kind's terms.
func TestEngineEventLocalDispatch(t *testing.T) {
	models := imageProfiles()
	const slo = 0.150
	schemes := []struct {
		name    string
		central bool
		scheme  func(workers int) Scheme
	}{
		{"rr", false, func(int) Scheme { return Scheme{Balancer: lb.NewRoundRobin(), Select: fitSlack(models)} }},
		{"jsq", false, func(int) Scheme { return Scheme{Balancer: lb.NewJoinShortestQueue(), Select: fitSlack(models)} }},
		{"p2c", false, func(int) Scheme { return Scheme{Balancer: lb.NewPowerOfTwoChoices(3), Select: fitSlack(models)} }},
		{"fixed", true, func(int) Scheme { return (&FixedModel{Model: 0, MaxBatch: 8}).Scheme(models) }},
		{"jellyfish", true, func(workers int) Scheme { return jellyfishPlus(models, slo, workers) }},
	}
	var dropped, shed int
	for _, workers := range []int{1, 3, 80} {
		// Lulls let workers idle; bursts past capacity build queues long
		// enough to expire and to hit the cap.
		c := float64(workers) * models.Fastest().ThroughputWithin(slo/2)
		tr := trace.Trace{IntervalSec: 0.5, QPS: []float64{0.3 * c, 3 * c, 0.1 * c, 2 * c}}
		arr := trace.PoissonArrivals(tr, int64(workers))
		for _, sc := range schemes {
			for _, lat := range []LatencyModel{Deterministic{}, Stochastic{StdDev: 0.010}} {
				for _, drop := range []bool{false, true} {
					for _, capped := range []bool{false, true} {
						name := fmt.Sprintf("%dw/%s/%T/drop=%v/cap=%v", workers, sc.name, lat, drop, capped)
						e := NewEngine(models, slo, workers, lat, sc.scheme(workers), 7)
						e.DropExpired, e.RecordDecisions = drop, true
						if capped {
							e.Admit = admit.Cap{Limit: 4 * workers}
						}
						if err := stepChecked(e, arr, sc.central); err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						m := e.metrics
						if m.Served+m.Dropped+m.Shed != len(arr) || m.Unserved != 0 || e.Outstanding() != 0 {
							t.Fatalf("%s: served %d + dropped %d + shed %d of %d, unserved %d, outstanding %d",
								name, m.Served, m.Dropped, m.Shed, len(arr), m.Unserved, e.Outstanding())
						}
						dropped += m.Dropped
						shed += m.Shed
					}
				}
			}
		}
	}
	if dropped == 0 || shed == 0 {
		t.Errorf("grid dropped %d and shed %d queries: the purge or the cap path went unexercised", dropped, shed)
	}

	// Token workers: the same loop with llm.Batcher steps as the work, over
	// {1, 2, 3} workers × a fixed or a model-switching selector × the
	// profiles' KV capacity or one tight enough to gate admission and turn
	// the burst's 4,150-token queries away.
	stepModels, queries := llm.BuiltinSet(), burstWorkload()
	var rejected, switches int
	for _, workers := range []int{1, 2, 3} {
		for _, sel := range []ModelSelector{FixedSelector(stepModels.Fastest()), tokenLadder{fast: stepModels.Fastest(), accurate: stepModels.MostAccurate(), limit: 3000}} {
			for _, kvCap := range []int{0, 3000} {
				name := fmt.Sprintf("token %dw/%T/kv=%d", workers, sel, kvCap)
				e := NewLLMEngine(stepModels, 8.0, workers, sel)
				e.KVCap = kvCap
				if err := stepCheckedTokens(e, queries); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				m := e.fold(e.metrics)
				if m.Served+m.Dropped != len(queries) || e.Outstanding() != 0 {
					t.Fatalf("%s: served %d + dropped %d of %d, outstanding %d", name, m.Served, m.Dropped, len(queries), e.Outstanding())
				}
				rejected += m.Dropped
				switches += m.ModelSwitches
			}
		}
	}
	if rejected == 0 || switches == 0 {
		t.Errorf("token grid rejected %d queries and switched models %d times: the KV gate or the switch path went unexercised", rejected, switches)
	}
}

// tokenLadder serves the fastest model while a worker's outstanding tokens
// exceed limit and the most accurate one otherwise, so token workers switch
// models, and drain to do so, as the load moves.
type tokenLadder struct{ fast, accurate, limit int }

func (s tokenLadder) SelectModel(_, outstandingTokens int, _, _ float64) int {
	if outstandingTokens > s.limit {
		return s.fast
	}
	return s.accurate
}

// stepCheckedTokens runs queries through the token workers one event at a
// time, checking after each: every lens entry is its batcher's outstanding
// tokens; a worker has a step in flight exactly when its batcher is not
// idle; the running Outstanding matches a recount from the tallies; an
// event starts at most one run — the heap grows by at most one, and a
// worker whose step count moved took its decode run plus the one step Begin
// returned; and no step a batcher landed itself ends at or after the
// arrival that follows it.
func stepCheckedTokens(e *LLMEngine, queries []Query) error {
	e.Engine.begin()
	e.rest = queries
	steps := make([]int, len(e.b))
	for more, ev := true, 0; more; ev++ {
		pending := e.events.len()
		more = e.step()
		if started := e.events.len() - pending; started > 1 {
			return fmt.Errorf("event %d started %d runs", ev, started)
		}
		for w, b := range e.b {
			if moved := b.Counts().Steps - steps[w]; moved > 0 {
				n, end := b.DecodeRun()
				if moved != n+1 {
					return fmt.Errorf("event %d: worker %d took %d steps, not a run of %d and one more", ev, w, moved, n)
				}
				if n > 0 && len(e.rest) > 0 && !(end < e.rest[0].Arrival) {
					return fmt.Errorf("event %d: worker %d landed a step ending at %v, not before the next arrival at %v", ev, w, end, e.rest[0].Arrival)
				}
				steps[w] += moved
			}
			if got, want := e.lens[w], b.Outstanding(); got != want {
				return fmt.Errorf("event %d: lens[%d] = %d, batcher outstanding %d", ev, w, got, want)
			}
			if busy := e.idle[w/64]&(1<<(w%64)) == 0; busy == b.Idle() {
				return fmt.Errorf("event %d: worker %d step in flight %v, batcher idle %v", ev, w, busy, b.Idle())
			}
		}
		ended := 0
		for _, a := range e.accts {
			ended += a.m.Served + a.m.Dropped + a.m.Shed
		}
		if got, want := e.Outstanding(), len(queries)-len(e.rest)-ended; got != want {
			return fmt.Errorf("event %d: Outstanding() = %d, recount %d", ev, got, want)
		}
	}
	e.finishMetrics()
	return nil
}

// stepChecked runs arr through e one event at a time, checking the
// event-local dispatch invariants after each.
func stepChecked(e *Engine, arr []float64, central bool) error {
	queries := make([]Query, len(arr))
	for i, at := range arr {
		queries[i] = Query{ID: i, Arrival: at}
	}
	e.begin()
	e.rest = queries
	for more, ev := true, 0; more; ev++ {
		lowestIdle := e.Workers
		for w := range e.inflight {
			if len(e.inflight[w].queries) == 0 {
				lowestIdle = w
				break
			}
		}
		logged := len(e.metrics.DecisionLog)
		more = e.step()
		switch started := e.metrics.DecisionLog[logged:]; {
		case len(started) > 1:
			return fmt.Errorf("event %d started %d batches", ev, len(started))
		case len(started) == 1 && central && started[0].Worker > lowestIdle:
			return fmt.Errorf("event %d: central batch went to worker %d, worker %d was idle", ev, started[0].Worker, lowestIdle)
		}
		n, idle := len(e.central), false
		for w := range e.wq {
			if got, want := e.lens[w], len(e.wq[w])+len(e.inflight[w].queries); got != want {
				return fmt.Errorf("event %d: lens[%d] = %d, queued + in flight = %d", ev, w, got, want)
			}
			n += e.lens[w]
			if len(e.inflight[w].queries) == 0 {
				idle = true
				if len(e.wq[w]) > 0 {
					return fmt.Errorf("event %d: worker %d idle with %d queued", ev, w, len(e.wq[w]))
				}
			}
		}
		if idle && len(e.central) > 0 {
			return fmt.Errorf("event %d: a worker is idle with %d queued centrally", ev, len(e.central))
		}
		if got := e.Outstanding(); got != n {
			return fmt.Errorf("event %d: Outstanding() = %d, recount %d", ev, got, n)
		}
	}
	e.finishMetrics()
	return nil
}

// TestEventQueueTiesPopLowestWorkerFirst: completions due at the same
// instant pop in worker order, whatever order they were pushed in — the
// order a scan over the workers by index would take them.
func TestEventQueueTiesPopLowestWorkerFirst(t *testing.T) {
	var q eventQueue
	q.reset(8)
	for w := 7; w >= 0; w-- {
		q.push(event{time: 1 + float64(w%2), worker: w})
	}
	want := []int{0, 2, 4, 6, 1, 3, 5, 7}
	for i, w := range want {
		if ev := q.pop(); ev.worker != w || ev.time != 1+float64(w%2) {
			t.Fatalf("pop %d: worker %d at %v, want worker %d at %v", i, ev.worker, ev.time, w, 1+float64(w%2))
		}
	}
}

func TestMetricsLatencyPercentiles(t *testing.T) {
	ps := imageProfiles()
	// Exact path: latencies collected.
	e := NewEngine(ps, 0.5, 2, Deterministic{}, &FixedModel{Model: 0, MaxBatch: 4}, 1)
	e.CollectLatencies = true
	m := e.Run([]float64{0, 0.01, 0.02, 0.03, 0.04})
	if m.LatencyP50 <= 0 || m.LatencyP95 < m.LatencyP50 || m.LatencyP99 < m.LatencyP95 {
		t.Fatalf("percentiles not monotone: p50=%v p95=%v p99=%v", m.LatencyP50, m.LatencyP95, m.LatencyP99)
	}
	// Histogram path: same run without collection must stay close.
	e2 := NewEngine(ps, 0.5, 2, Deterministic{}, &FixedModel{Model: 0, MaxBatch: 4}, 1)
	m2 := e2.Run([]float64{0, 0.01, 0.02, 0.03, 0.04})
	if m2.LatencyP50 <= 0 {
		t.Fatal("histogram-backed p50 missing")
	}
	if rel := math.Abs(m2.LatencyP95-m.LatencyP95) / m.LatencyP95; rel > 0.5 {
		t.Errorf("histogram p95 %v far from exact %v", m2.LatencyP95, m.LatencyP95)
	}
}

func TestEngineTelemetryMatchesMetrics(t *testing.T) {
	ps := imageProfiles()
	reg := telemetry.NewRegistry()
	e := NewEngine(ps, 0.150, 2, Deterministic{}, &FixedModel{Model: 0, MaxBatch: 4}, 1)
	e.Telemetry = reg
	var arr []float64
	for i := 0; i < 40; i++ {
		arr = append(arr, float64(i)*0.005)
	}
	m := e.Run(arr)
	if got := reg.Counter(telemetry.MetricQueries).Value(); int(got) != m.Served {
		t.Errorf("registry served %v, metrics %d", got, m.Served)
	}
	if got := reg.Counter(telemetry.MetricViolations).Value(); int(got) != m.Violations {
		t.Errorf("registry violations %v, metrics %d", got, m.Violations)
	}
	if got := reg.Counter(telemetry.MetricDecisions).Value(); int(got) != m.Decisions {
		t.Errorf("registry decisions %v, metrics %d", got, m.Decisions)
	}
	inf := reg.Histogram(telemetry.MetricStageSeconds, "stage", telemetry.StageInference)
	if inf.Count() != uint64(m.Decisions) {
		t.Errorf("inference stage samples %d, want one per decision (%d)", inf.Count(), m.Decisions)
	}
	bw := reg.Histogram(telemetry.MetricStageSeconds, "stage", telemetry.StageBatchWait)
	if bw.Count() != uint64(m.Served) {
		t.Errorf("batch_wait stage samples %d, want one per query (%d)", bw.Count(), m.Served)
	}
}

// TestQueryFinishingExactlyOnDeadlineMeetsIt pins the one SLO boundary both
// drivers judge by: latency == SLO is met, the first representable miss is
// beyond the 1e-12 tolerance that absorbs clock rounding.
func TestQueryFinishingExactlyOnDeadlineMeetsIt(t *testing.T) {
	ps := imageProfiles()
	lat := ps.Profiles[0].BatchLatency(1)
	for _, tc := range []struct {
		slo        float64
		violations int
	}{{lat, 0}, {lat - 1e-9, 1}} {
		e := NewEngine(ps, tc.slo, 1, Deterministic{}, &FixedModel{Model: 0, MaxBatch: 1}, 1)
		if m := e.Run([]float64{0}); m.Served != 1 || m.Violations != tc.violations {
			t.Errorf("SLO %v, latency %v: %+v, want %d violations", tc.slo, lat, m.Tally, tc.violations)
		}
	}
}

// badModel names a model no worker loads.
func badModel(float64, float64, int, float64) (string, int) { return "no-such-model", 4 }

// TestUnknownModelFallsBackAndIsCounted: a mis-wired scheduler never drops
// queries or panics — every decision runs on the fallback model, and both
// the Metrics and the registry say so, so an experiment can fail on it.
func TestUnknownModelFallsBackAndIsCounted(t *testing.T) {
	ps := imageProfiles()
	reg := telemetry.NewRegistry()
	e := NewEngine(ps, 0.150, 1, Deterministic{}, Scheme{Select: badModel}, 1)
	e.Telemetry = reg
	m := e.Run([]float64{0, 0.001, 0.002})
	if m.Served != 3 || m.SelectFallbacks != m.Decisions || m.Decisions == 0 {
		t.Fatalf("served %d, %d fallbacks over %d decisions; want all served, every decision a fallback",
			m.Served, m.SelectFallbacks, m.Decisions)
	}
	if m.ModelCounts[ps.Profiles[0].Name] != 3 {
		t.Errorf("model counts %v, want everything on the fallback %s", m.ModelCounts, ps.Profiles[0].Name)
	}
	if got := reg.Counter(telemetry.MetricSelectFallbacks).Value(); int(got) != m.SelectFallbacks {
		t.Errorf("registry fallbacks %v, metrics %d", got, m.SelectFallbacks)
	}
}
