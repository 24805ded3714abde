package core

import (
	"math"
	"path/filepath"
	"strings"
	"testing"

	"ramsis/internal/dist"
	"ramsis/internal/profile"
)

// genConfig is a moderately sized generation problem used across tests.
func genConfig(load float64) Config {
	return Config{
		Models:  profile.ImageSet(),
		SLO:     0.150,
		Workers: 8,
		Arrival: dist.NewPoisson(load),
		D:       50, // keep unit tests quick
	}
}

func TestGeneratePolicyIsValid(t *testing.T) {
	pol, err := Generate(genConfig(300))
	if err != nil {
		t.Fatal(err)
	}
	if pol.States != 2+32*51 {
		t.Errorf("states = %d, want %d", pol.States, 2+32*51)
	}
	// Every chosen action must satisfy its state's slack or be the forced
	// fastest-model action.
	fast := pol.space.fastestModel()
	for s, c := range pol.Choices {
		if c.Arrival {
			if s != pol.space.emptyState() {
				t.Fatalf("arrival action chosen in non-empty state %d", s)
			}
			continue
		}
		n, j := pol.space.decompose(s)
		if s == pol.space.overflowState() {
			n = pol.MaxQueue
			j = 0
		}
		if c.Batch != n {
			t.Fatalf("state %d: maximal batching chose batch %d != n %d", s, c.Batch, n)
		}
		slack := pol.Grid[j]
		if s == pol.space.overflowState() {
			slack = 0
		}
		if c.Satisfies && c.Latency > slack+1e-12 {
			t.Fatalf("state %d: satisfying action with latency %v > slack %v", s, c.Latency, slack)
		}
		if !c.Satisfies && c.ModelIdx != fast {
			t.Fatalf("state %d: forced action uses %s, want fastest", s, c.Model)
		}
	}
	if pol.ExpectedAccuracy <= 0 || pol.ExpectedAccuracy > 1 {
		t.Errorf("expected accuracy %v outside (0,1]", pol.ExpectedAccuracy)
	}
	if pol.ExpectedViolation < 0 || pol.ExpectedViolation > 1 {
		t.Errorf("expected violation %v outside [0,1]", pol.ExpectedViolation)
	}
}

func TestGenerateRejectsInvalidConfig(t *testing.T) {
	cfg := genConfig(300)
	cfg.SLO = -1
	if _, err := Generate(cfg); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestLowerLoadGivesHigherAccuracy(t *testing.T) {
	// The central claim mechanism: with more slack between arrivals, the
	// policy can pick slower, more accurate models.
	low, err := Generate(genConfig(80))
	if err != nil {
		t.Fatal(err)
	}
	high, err := Generate(genConfig(420))
	if err != nil {
		t.Fatal(err)
	}
	if low.ExpectedAccuracy <= high.ExpectedAccuracy {
		t.Errorf("expected accuracy at 80 QPS (%v) not above 420 QPS (%v)",
			low.ExpectedAccuracy, high.ExpectedAccuracy)
	}
	// At very low load the single-query decision should pick a model more
	// accurate than the load-granular choice at high load.
	cl := low.Select(1, 0.15)
	ch := high.Select(1, 0.15)
	al, _ := profile.ImageSet().ByName(cl.Model)
	ah, _ := profile.ImageSet().ByName(ch.Model)
	if al.Accuracy < ah.Accuracy {
		t.Errorf("low-load single-query model %s less accurate than high-load %s", cl.Model, ch.Model)
	}
}

func TestPolicyInterArrivalAwareness(t *testing.T) {
	// RAMSIS's key behaviour (Fig. 2): at the same load, the policy picks
	// higher-accuracy models when slack is high (a lull) than the
	// throughput-sustaining model selected under pressure.
	pol, err := Generate(genConfig(350))
	if err != nil {
		t.Fatal(err)
	}
	lull := pol.Select(1, 0.15)
	pressed := pol.Select(16, 0.15)
	a1, _ := profile.ImageSet().ByName(lull.Model)
	a2, _ := profile.ImageSet().ByName(pressed.Model)
	if a1.Accuracy <= a2.Accuracy {
		t.Errorf("lull decision %s (acc %.3f) not more accurate than pressured %s (acc %.3f)",
			lull.Model, a1.Accuracy, pressed.Model, a2.Accuracy)
	}
}

func TestSelectClampsOverlongQueues(t *testing.T) {
	pol, err := Generate(genConfig(300))
	if err != nil {
		t.Fatal(err)
	}
	c := pol.Select(100, 0.01)
	if c.Arrival {
		t.Fatal("overflow lookup returned arrival action")
	}
	if c.Batch != pol.MaxQueue {
		t.Errorf("overflow decision batch = %d, want N_w = %d", c.Batch, pol.MaxQueue)
	}
}

func TestMDPolicyAtLeastAsAccurateAsCoarseFLD(t *testing.T) {
	// §C: MD represents every relevant slack exactly, so a very coarse FLD
	// policy should not beat it.
	cfgMD := genConfig(300)
	cfgMD.Disc = ModelBased
	md, err := Generate(cfgMD)
	if err != nil {
		t.Fatal(err)
	}
	cfgF := genConfig(300)
	cfgF.Disc = FixedLength
	cfgF.D = 2
	coarse, err := Generate(cfgF)
	if err != nil {
		t.Fatal(err)
	}
	if md.ExpectedAccuracy+1e-9 < coarse.ExpectedAccuracy-0.02 {
		t.Errorf("MD accuracy %v well below FLD D=2 accuracy %v", md.ExpectedAccuracy, coarse.ExpectedAccuracy)
	}
	if len(md.Grid) == len(coarse.Grid) {
		t.Error("MD and FLD grids unexpectedly identical")
	}
}

func TestPolicySaveLoadRoundTrip(t *testing.T) {
	pol, err := Generate(genConfig(300))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "gen", "p.json")
	if err := pol.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadPolicy(path, profile.ImageSet())
	if err != nil {
		t.Fatal(err)
	}
	if got.Load != pol.Load || got.SLO != pol.SLO || got.Workers != pol.Workers {
		t.Errorf("metadata mismatch: %+v", got)
	}
	// The stats are an embedded struct; each of its keys must survive.
	if got.stats != pol.stats {
		t.Errorf("stats after reload %+v, want %+v", got.stats, pol.stats)
	}
	assertSameSelect(t, pol, got, 80)
}

// assertSameSelect fails unless two policies decide alike over an (n, slack)
// grid reaching past the queue bound.
func assertSameSelect(t *testing.T, want, got *Policy, maxN int) {
	t.Helper()
	for _, n := range []int{0, 1, 5, 17, 32, maxN} {
		for _, sl := range []float64{0, 0.04, 0.11, 0.15} {
			a, b := want.Select(n, sl), got.Select(n, sl)
			if a.Model != b.Model || a.Batch != b.Batch || a.Satisfies != b.Satisfies {
				t.Fatalf("Select(%d, %v) differs: %+v vs %+v", n, sl, b, a)
			}
		}
	}
}

// TestLoadPolicyFromParentFormat loads a policy file written before the stats
// moved into an embedded struct — it still carries the since-deleted
// accuracyDist and stateExpectedAccuracy keys — and requires it to decide as
// the same configuration generated today does.
func TestLoadPolicyFromParentFormat(t *testing.T) {
	got, err := LoadPolicy(filepath.Join("testdata", "policy-parent.json"), profile.ImageSet())
	if err != nil {
		t.Fatal(err)
	}
	pol, err := Generate(smallBuildConfig(func(c *Config) { c.MaxQueue = 8 }))
	if err != nil {
		t.Fatal(err)
	}
	if got.States != pol.States || got.Transitions != pol.Transitions {
		t.Errorf("loaded %d states / %d transitions, generated %d / %d",
			got.States, got.Transitions, pol.States, pol.Transitions)
	}
	if math.Abs(got.ExpectedAccuracy-pol.ExpectedAccuracy) > 1e-12 ||
		math.Abs(got.ExpectedViolation-pol.ExpectedViolation) > 1e-12 {
		t.Errorf("loaded expectations %v / %v, generated %v / %v",
			got.ExpectedAccuracy, got.ExpectedViolation, pol.ExpectedAccuracy, pol.ExpectedViolation)
	}
	assertSameSelect(t, pol, got, 20)
}

func TestLoadPolicyMissingModel(t *testing.T) {
	pol, err := Generate(genConfig(300))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "p.json")
	if err := pol.Save(path); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadPolicy(path, profile.TextSet()); err == nil {
		t.Error("loading against the wrong model set should fail")
	}
}

func TestPolicySetSelection(t *testing.T) {
	base := genConfig(1) // arrival replaced per-load by the set
	ps := NewPolicySet(base, nil)
	if _, err := ps.PolicyFor(100); err == nil {
		t.Error("empty set lookup should fail")
	}
	if err := ps.GenerateLoads([]float64{100, 200, 400}); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		load float64
		want float64
	}{{50, 100}, {100, 100}, {150, 200}, {399, 400}, {400, 400}}
	for _, c := range cases {
		p, err := ps.PolicyFor(c.load)
		if err != nil {
			t.Fatal(err)
		}
		if p.Load != c.want {
			t.Errorf("PolicyFor(%v).Load = %v, want %v (lowest load meeting demand)", c.load, p.Load, c.want)
		}
	}
	// Beyond the ladder: the top rung, uncovered, and nothing generated —
	// the 500 rung is internal/adapt's to generate (TestCoverageGeneratesOnDemand).
	p, err := ps.PolicyFor(500)
	if err != nil {
		t.Fatal(err)
	}
	if best, covered := ps.Best(500); p.Load != 400 || best != p || covered {
		t.Errorf("PolicyFor(500).Load = %v, Best covered = %v; want the 400 rung, uncovered", p.Load, covered)
	}
	if got := len(ps.Policies()); got != 3 {
		t.Errorf("ladder size = %d after a lookup past it, want 3", got)
	}
}

func TestPolicySetRefine(t *testing.T) {
	base := genConfig(1)
	base.D = 25
	ps := NewPolicySet(base, nil)
	if err := ps.Refine(50, 450, 0.05, 12); err != nil {
		t.Fatal(err)
	}
	pols := ps.Policies()
	if len(pols) < 3 {
		t.Fatalf("refine produced only %d policies", len(pols))
	}
	for i := 1; i < len(pols); i++ {
		if pols[i].Load <= pols[i-1].Load {
			t.Fatal("policies not sorted by load")
		}
		gap := math.Abs(pols[i].ExpectedAccuracy - pols[i-1].ExpectedAccuracy)
		if gap >= 0.05 && pols[i].Load-pols[i-1].Load > 1 && len(pols) < 12 {
			t.Errorf("adjacent accuracy gap %.4f >= threshold between loads %v and %v",
				gap, pols[i-1].Load, pols[i].Load)
		}
	}
}

func TestGammaArrivalPolicyGenerates(t *testing.T) {
	// §3.1.1: RAMSIS is parameterized by the arrival distribution.
	cfg := genConfig(300)
	cfg.Arrival = dist.NewGamma(300, 4)
	pol, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if pol.ExpectedAccuracy <= 0 {
		t.Error("gamma-arrival policy has no accuracy expectation")
	}
	// A more regular arrival process (Erlang-4) leaves less burst risk, so
	// the policy should do at least as well as under Poisson.
	pois, err := Generate(genConfig(300))
	if err != nil {
		t.Fatal(err)
	}
	if pol.ExpectedAccuracy < pois.ExpectedAccuracy-0.02 {
		t.Errorf("Erlang-4 accuracy %v unexpectedly below Poisson %v",
			pol.ExpectedAccuracy, pois.ExpectedAccuracy)
	}
}

func TestSQFPolicyGenerates(t *testing.T) {
	cfg := genConfig(300)
	cfg.Balancing = ShortestQueueFirst
	pol, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if pol.Balancing != ShortestQueueFirst {
		t.Error("balancing not recorded")
	}
	if pol.ExpectedAccuracy <= 0 || pol.ExpectedViolation < 0 {
		t.Error("SQF expectations out of range")
	}
}

func TestVariableBatchingPolicyGenerates(t *testing.T) {
	cfg := genConfig(300)
	cfg.D = 25
	cfg.Batching = VariableBatching
	pol, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// §4.3.2: variable batching mostly picks the maximal batch; ensure the
	// policy is at least well-formed and batches never exceed n.
	for s, c := range pol.Choices {
		if c.Arrival {
			continue
		}
		n, _ := pol.space.decompose(s)
		if s == pol.space.overflowState() {
			n = pol.MaxQueue
		}
		if c.Batch < 1 || c.Batch > n {
			t.Fatalf("state %d: batch %d outside [1, %d]", s, c.Batch, n)
		}
	}
}

func TestModelsAccessor(t *testing.T) {
	pol, err := Generate(genConfig(300))
	if err != nil {
		t.Fatal(err)
	}
	if got := len(pol.Models()); got != 9 {
		t.Errorf("policy models = %d, want the 9 Pareto-front models", got)
	}
}

func TestDescribe(t *testing.T) {
	pol, err := Generate(genConfig(300))
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	pol.Describe(&buf)
	out := buf.String()
	for _, want := range []string{"expected accuracy", "n=1", "n=32", "overflow", "shufflenet_v2_x0_5"} {
		if !strings.Contains(out, want) {
			t.Errorf("Describe output missing %q", want)
		}
	}
	// Every queue length row present exactly once.
	if c := strings.Count(out, "n=32 "); c != 1 {
		t.Errorf("n=32 row appears %d times", c)
	}
}

// TestGeneratePrioritizedMatchesValueIteration pins the default solver to
// the byte-pinned Jacobi sweep on a cold scalar generation, at a queue bound
// (3×) past the one the adapt tests re-solve warm: same choice in every state.
func TestGeneratePrioritizedMatchesValueIteration(t *testing.T) {
	if testing.Short() {
		t.Skip("3x queue space generation is slow")
	}
	cfg := genConfig(300)
	cfg.MaxQueue = 96
	assertJacobiChoices(t, scalarChoices(cfg))
}
