package sched

import (
	"testing"

	"ramsis/internal/admit"
	"ramsis/internal/profile"
	"ramsis/internal/telemetry"
)

// testSet is three models, listed slowest first so index order and speed
// order differ: slow (batch ≤ 8), mid (batch ≤ 4), fast (batch ≤ 2).
func testSet() profile.Set {
	mk := func(name string, acc, lat float64, maxBatch int) profile.Profile {
		p := profile.Profile{Model: profile.Model{Name: name, Accuracy: acc}}
		for b := 1; b <= maxBatch; b++ {
			p.Latency = append(p.Latency, lat*float64(b))
		}
		return p
	}
	return profile.Set{Task: "test", Profiles: []profile.Profile{
		mk("slow", 0.9, 0.100, 8), mk("mid", 0.8, 0.050, 4), mk("fast", 0.7, 0.010, 2),
	}}
}

// pinnedDegrader returns a degrader escalated to exactly level.
func pinnedDegrader(t *testing.T, level int) *admit.Degrader {
	t.Helper()
	d := admit.NewDegrader(admit.DegradeConfig{MaxLevel: level, Window: 1, EnterShedRate: 0.01})
	for now := 0.0; d.Level() < level; now += 0.5 {
		d.Observe(now, true, 0)
		if now > 100 {
			t.Fatalf("degrader stuck at level %d, want %d", d.Level(), level)
		}
	}
	return d
}

// TestDecideClampAndCap pins the one degrade-clamp rule: the head account's
// level substitutes the slowest still-allowed model whatever batch was
// asked for, and the batch is then capped by that model's MaxBatch and the
// queue length — overload relief must not depend on batch size.
func TestDecideClampAndCap(t *testing.T) {
	cases := []struct {
		level     int
		model     string
		batch     int
		queueLen  int
		wantModel string
		wantBatch int
		clamped   bool
	}{
		{0, "slow", 8, 8, "slow", 8, false},
		{0, "slow", 8, 3, "slow", 3, false}, // queue shorter than the batch
		{0, "mid", 8, 8, "mid", 4, false},   // selector over the model's MaxBatch
		{1, "slow", 8, 8, "mid", 4, true},   // clamp, then shrink to the faster model's MaxBatch
		{1, "slow", 2, 8, "mid", 2, true},
		{1, "mid", 4, 8, "mid", 4, false},  // already allowed at level 1
		{2, "slow", 8, 8, "fast", 2, true}, // batch 8 ≫ fast's MaxBatch 2: still substituted
		{2, "mid", 3, 1, "fast", 1, true},
		{2, "fast", 2, 8, "fast", 2, false},
		{9, "slow", 8, 8, "fast", 2, true}, // level past the ladder leaves the fastest
	}
	for _, tc := range cases {
		reg := telemetry.NewRegistry()
		ring := telemetry.NewDecisionBuffer(8)
		c := New(Config{Profiles: []profile.Set{testSet()}, Telemetry: reg, Decisions: ring})
		a := NewAccount(reg, "", 1, nil)
		if tc.level > 0 {
			a.Degrade = pinnedDegrader(t, tc.level)
		}
		var dec telemetry.Decision
		pick := c.Decide(Choice{Now: 1, QueueLen: tc.queueLen, Slack: 0.5, Model: tc.model, Batch: tc.batch, Head: &a}, &dec)
		got := c.Profile(0, pick.Model).Name
		if got != tc.wantModel || pick.Batch != tc.wantBatch || pick.Clamped != tc.clamped || pick.Fallback {
			t.Errorf("level %d %s×%d over %d queued: got %s×%d clamped=%v fallback=%v, want %s×%d clamped=%v",
				tc.level, tc.model, tc.batch, tc.queueLen, got, pick.Batch, pick.Clamped, pick.Fallback,
				tc.wantModel, tc.wantBatch, tc.clamped)
		}
		if dec.Kind != telemetry.DecisionSelect || dec.Model != tc.wantModel || dec.Batch != tc.wantBatch ||
			dec.DegradeLevel != min(tc.level, 9) || dec.PredictedSec != c.Profile(0, pick.Model).BatchLatency(pick.Batch) {
			t.Errorf("level %d %s×%d: select record %+v", tc.level, tc.model, tc.batch, dec)
		}
		clamps := ring.Snapshot()
		if tc.clamped != (len(clamps) == 1) {
			t.Errorf("level %d %s×%d: %d degrade records, clamped=%v", tc.level, tc.model, tc.batch, len(clamps), tc.clamped)
		} else if tc.clamped && (clamps[0].Kind != telemetry.DecisionDegrade || clamps[0].Outcome != "clamped from "+tc.model) {
			t.Errorf("degrade record %+v", clamps[0])
		}
		if got := reg.Counter(telemetry.MetricAdmitDegradedDecisions).Value(); (got == 1) != tc.clamped {
			t.Errorf("degraded counter %v, clamped=%v", got, tc.clamped)
		}
	}
}

// TestDecideFallbackIsCounted: an unknown model or an empty batch never
// drops the queue — it runs on the first model at batch one, counted.
func TestDecideFallbackIsCounted(t *testing.T) {
	reg := telemetry.NewRegistry()
	c := New(Config{Profiles: []profile.Set{testSet()}, Telemetry: reg})
	a := NewAccount(reg, "", 1, nil)
	for i, ch := range []Choice{
		{Model: "no-such-model", Batch: 4, QueueLen: 4, Head: &a},
		{Model: "mid", Batch: 0, QueueLen: 4, Head: &a},
	} {
		pick := c.Decide(ch, nil)
		if !pick.Fallback || pick.Model != 0 || pick.Batch != 1 {
			t.Errorf("choice %d: pick %+v, want fallback to model 0 batch 1", i, pick)
		}
	}
	if got := reg.Counter(telemetry.MetricSelectFallbacks).Value(); got != 2 {
		t.Errorf("fallback counter %v, want 2", got)
	}
}

// TestTightestScansTheBatchWindow: the slack honors the tightest deadline
// among the queries a batch could hold, and no further.
func TestTightestScansTheBatchWindow(t *testing.T) {
	c := New(Config{Profiles: []profile.Set{testSet()}}) // window = largest MaxBatch = 8
	q := &deadlines{5, 3, 4, 9, 9, 9, 9, 9, 1 /* ninth: outside the window */}
	if n, d := c.Tightest(0, q); n != 9 || d != 3 {
		t.Errorf("Tightest = (%d, %v), want (9, 3)", n, d)
	}
	if n, d := c.Tightest(0, &deadlines{7}); n != 1 || d != 7 {
		t.Errorf("single query: (%d, %v), want (1, 7)", n, d)
	}
}

type deadlines []float64

// Pointer receivers, like the drivers' queues: the Window conversion is free.
func (d *deadlines) Len() int               { return len(*d) }
func (d *deadlines) Deadline(i int) float64 { return (*d)[i] }

// TestFinishJudgesEachQueryAgainstItsAccount covers the finish step with no
// engine or HTTP: the one SLO boundary (a query landing exactly on its
// deadline met it), per-account judgement inside a mixed batch, the
// undelivered batch, and every series the outcome lands in.
func TestFinishJudgesEachQueryAgainstItsAccount(t *testing.T) {
	reg := telemetry.NewRegistry()
	ring := telemetry.NewDecisionBuffer(8)
	c := New(Config{Profiles: []profile.Set{testSet()}, Telemetry: reg, Decisions: ring, WorkerOffset: 10})
	strict := NewAccount(reg, "strict", 0.5, nil)
	lax := NewAccount(reg, "lax", 2, nil)

	var dec telemetry.Decision
	pick := c.Decide(Choice{Now: 9.9, QueueLen: 3, Model: "mid", Batch: 3, Head: &strict}, &dec)
	fin := c.Finish(pick, &dec, 1, 0.1, 10, true)
	for _, q := range []struct {
		a        *Account
		arrival  float64
		latency  float64
		violated bool
	}{
		{&strict, 9.5, 0.5, false}, // exactly on the deadline
		{&strict, 9.4, 0.6, true},
		{&lax, 9.4, 0.6, false}, // same latency, its own SLO
	} {
		lat, violated := fin.Query(q.a, q.arrival, "")
		if diff := lat - q.latency; diff > 1e-9 || diff < -1e-9 || violated != q.violated {
			t.Errorf("%s arrival %v: latency %v violated %v, want %v %v", q.a.Name, q.arrival, lat, violated, q.latency, q.violated)
		}
	}
	// A batch that reached no worker: every query violates, and is counted failed.
	failed := c.Finish(pick, nil, 1, 0, 10, false)
	if _, violated := failed.Query(&lax, 9.9, ""); !violated {
		t.Error("undelivered query judged as met")
	}

	count := func(name string, labels ...string) float64 { return reg.Counter(name, labels...).Value() }
	for _, want := range []struct {
		got  float64
		want float64
		what string
	}{
		{count(telemetry.MetricQueries), 4, "queries"},
		{count(telemetry.MetricViolations), 2, "violations"},
		{count(telemetry.MetricFailedDispatches), 1, "failed"},
		{count(telemetry.MetricDecisions), 2, "decisions"},
		{count(telemetry.MetricSatAccuracySum), 2 * 0.8, "satisfied accuracy"},
		{count(telemetry.MetricModelQueries, "model", "mid"), 6, "model queries"},
		{count(telemetry.MetricTenantQueries, "tenant", "strict"), 2, "strict queries"},
		{count(telemetry.MetricTenantViolations, "tenant", "strict"), 1, "strict violations"},
		{count(telemetry.MetricTenantViolations, "tenant", "lax"), 1, "lax violations"},
	} {
		if want.got != want.want {
			t.Errorf("%s = %v, want %v", want.what, want.got, want.want)
		}
	}
	if att := strict.Attainment.Attainment(10, 60); att != 0.5 {
		t.Errorf("strict attainment %v, want 0.5", att)
	}
	recs := ring.Snapshot()
	if len(recs) != 1 || recs[0].Worker != 11 || recs[0].RealizedSec != 0.1 || recs[0].Outcome != "served" ||
		recs[0].PredictedSec != c.Profile(0, pick.Model).BatchLatency(3) {
		t.Errorf("completed select record %+v", recs)
	}
}

// script is an admitter that hands out its verdicts in order.
type script []admit.Verdict

func (s *script) Admit(string, admit.Request) admit.Verdict {
	v := (*s)[0]
	*s = (*s)[1:]
	return v
}

func (s *script) Name() string { return "cap" }

// backlog is a driver's queues that count how often they were read.
type backlog struct{ n, reads int }

func (b *backlog) Outstanding() int { b.reads++; return b.n }

// probe is a rate monitor whose load is the number of arrivals it has
// observed, noting at each Observe how many records the ring held.
type probe struct {
	ring    *telemetry.DecisionBuffer
	n       int
	records []int // ring length at each Observe
}

func (p *probe) Observe(float64)      { p.n++; p.records = append(p.records, len(p.ring.Snapshot())) }
func (p *probe) Load(float64) float64 { return float64(p.n) }

// TestArriveScreensAccountsAndObserves covers the arrival step's four
// cases: with no admitter the arrival is observed and nothing is recorded
// (nor the backlog read); a shed query is not observed and leaves a shed
// record with the pre-arrival rate plus a one-span trace; a borrow leaves a
// borrow record; an admitted query is observed after its record is written.
func TestArriveScreensAccountsAndObserves(t *testing.T) {
	ring := telemetry.NewDecisionBuffer(8)
	traces := telemetry.NewTraceBuffer(8)
	q := &backlog{n: 7}
	a := NewAccount(nil, "gold", 1, nil)
	mon := &probe{ring: ring}
	a.Monitor = mon

	bare := New(Config{Profiles: []profile.Set{testSet()}, Decisions: ring, Traces: traces})
	if v := bare.Arrive(&a, Arrival{ID: 0, Time: 0.1, TraceID: "t0", Backlog: q}); !v.Admit {
		t.Errorf("no admitter: verdict %+v, want admitted", v)
	}
	if mon.n != 1 || len(ring.Snapshot()) != 0 || len(traces.Snapshot()) != 0 || q.reads != 0 {
		t.Errorf("no admitter: %d observed, %d records, %d traces, backlog read %d times; want 1, 0, 0, 0",
			mon.n, len(ring.Snapshot()), len(traces.Snapshot()), q.reads)
	}

	verdicts := script{
		{EstWait: 0.7, RetryAfter: 1, Reason: admit.ReasonQueueFull},
		{Admit: true, Reason: admit.ReasonBorrowed},
		{Admit: true, EstWait: 0.01, Reason: admit.ReasonFair},
	}
	c := New(Config{Profiles: []profile.Set{testSet()}, Admit: &verdicts, Decisions: ring, Traces: traces, Process: "test"})
	if v := c.Arrive(&a, Arrival{ID: 1, Time: 0.2, TraceID: "t1", Backlog: q}); v.Admit || v.RetryAfter != 1 {
		t.Errorf("shed: verdict %+v", v)
	}
	if mon.n != 1 {
		t.Errorf("shed arrival observed: %d observations", mon.n)
	}
	recs := ring.Snapshot()
	if len(recs) != 1 || recs[0].Kind != telemetry.DecisionShed || recs[0].RateQPS != 1 || recs[0].QueueLen != 7 ||
		recs[0].PredictedSec != 0.7 || recs[0].TraceID != "t1" {
		t.Errorf("shed record %+v, want one shed at the pre-arrival rate 1 over a backlog of 7", recs)
	}
	shed := traces.Snapshot()
	if len(shed) != 1 || shed[0].ID != 1 || shed[0].Error != "shed" || shed[0].TraceID != "t1" || shed[0].Process != "test" ||
		len(shed[0].Spans) != 1 || shed[0].Spans[0].Stage != telemetry.StageShed {
		t.Errorf("shed trace %+v", shed)
	}

	if v := c.Arrive(&a, Arrival{ID: 2, Time: 0.3, Backlog: q}); !v.Admit {
		t.Errorf("borrow: verdict %+v", v)
	}
	if v := c.Arrive(&a, Arrival{ID: 3, Time: 0.4, Backlog: q}); !v.Admit {
		t.Errorf("admit: verdict %+v", v)
	}
	recs = ring.Snapshot()
	if len(recs) != 3 || recs[1].Kind != telemetry.DecisionBorrow || recs[2].Kind != telemetry.DecisionAdmit ||
		recs[1].RateQPS != 1 || recs[2].RateQPS != 2 {
		t.Fatalf("records %+v, want shed, borrow at rate 1, admit at rate 2", recs)
	}
	if mon.n != 3 || mon.records[1] != 2 || mon.records[2] != 3 {
		t.Errorf("observations %d with the ring at %v; want 3, each admitted one after its own record", mon.n, mon.records)
	}
	if q.reads != 3 || len(traces.Snapshot()) != 1 {
		t.Errorf("backlog read %d times, %d traces; want 3 and only the shed's", q.reads, len(traces.Snapshot()))
	}
}

// TestAdmitAccountsTheVerdict walks admit, borrow and shed through one
// account's arrival step: degrader pressure, counters, the decision kinds
// and the backlog each record carries.
func TestAdmitAccountsTheVerdict(t *testing.T) {
	reg := telemetry.NewRegistry()
	ring := telemetry.NewDecisionBuffer(8)
	verdicts := script{
		{Admit: true, EstWait: 0.01},
		{Admit: true, Reason: admit.ReasonBorrowed},
		{EstWait: 0.7, RetryAfter: 1},
	}
	c := New(Config{Profiles: []profile.Set{testSet()}, Admit: &verdicts, Telemetry: reg, Decisions: ring})
	a := NewAccount(reg, "gold", 1, nil)
	a.Degrade = admit.NewDegrader(admit.DegradeConfig{MaxLevel: 2, Window: 1, EnterShedRate: 0.01})

	for i, want := range []bool{true, true, false} {
		if v := c.Arrive(&a, Arrival{ID: i, Time: 0.1 * float64(i+1), Backlog: &backlog{n: 3 * i}}); v.Admit != want {
			t.Errorf("verdict %d: admitted %v, want %v", i, v.Admit, want)
		}
	}
	a.Degrade.Observe(2, false, 0) // close the window the shed fell in
	if a.Degrade.Level() == 0 {
		t.Error("shed verdict never reached the degrader")
	}
	var kinds []string
	for i, d := range ring.Snapshot() {
		kinds = append(kinds, d.Kind)
		if d.Tenant != "gold" || d.Worker != -1 || d.QueueLen != 3*i {
			t.Errorf("admission record %+v", d)
		}
	}
	if len(kinds) != 3 || kinds[0] != telemetry.DecisionAdmit || kinds[1] != telemetry.DecisionBorrow || kinds[2] != telemetry.DecisionShed {
		t.Errorf("decision kinds %v, want admit, borrow, shed", kinds)
	}
	for what, got := range map[string]float64{
		"admitted":        reg.Counter(telemetry.MetricAdmitAdmitted).Value() - 2,
		"shed":            reg.Counter(telemetry.MetricAdmitShed, "policy", "cap").Value() - 1,
		"tenant admitted": reg.Counter(telemetry.MetricTenantAdmitted, "tenant", "gold").Value() - 2,
		"tenant borrowed": reg.Counter(telemetry.MetricTenantBorrowed, "tenant", "gold").Value() - 1,
		"tenant shed":     reg.Counter(telemetry.MetricTenantShed, "tenant", "gold").Value() - 1,
	} {
		if got != 0 {
			t.Errorf("%s counter off by %v", what, got)
		}
	}
}

// TestBareCoreAllocatesNothing: without a registry, ring or tracer — the
// simulator's benchmark configuration — deciding and finishing a batch
// performs no allocation.
func TestBareCoreAllocatesNothing(t *testing.T) {
	c := New(Config{Profiles: []profile.Set{testSet()}})
	a := NewAccount(nil, "", 1, nil)
	q := &deadlines{5, 3}
	allocs := testing.AllocsPerRun(100, func() {
		n, d := c.Tightest(0, q)
		pick := c.Decide(Choice{Now: 1, QueueLen: n, Slack: d - 1, Model: "mid", Batch: 2, Head: &a}, nil)
		fin := c.Finish(pick, nil, 0, 0.1, 1.1, true)
		fin.Query(&a, 1, "")
		fin.Query(&a, 1, "")
	})
	if allocs != 0 {
		t.Errorf("bare decide+finish allocated %v times per batch", allocs)
	}
}
