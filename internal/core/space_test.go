package core

import (
	"math"
	"testing"
	"testing/quick"

	"ramsis/internal/dist"
	"ramsis/internal/profile"
)

func testConfig() Config {
	return Config{
		Models:  profile.ImageSet(),
		SLO:     0.150,
		Workers: 4,
		Arrival: dist.NewPoisson(160),
	}.withDefaults()
}

func TestFLDGrid(t *testing.T) {
	g := fldGrid(0.1, 10)
	if len(g) != 11 {
		t.Fatalf("FLD grid size %d, want 11", len(g))
	}
	if g[0] != 0 || g[10] != 0.1 {
		t.Errorf("FLD grid endpoints %v, %v, want 0 and 0.1", g[0], g[10])
	}
	for i := 1; i < len(g); i++ {
		if math.Abs(g[i]-g[i-1]-0.01) > 1e-12 {
			t.Fatalf("FLD spacing wrong at %d", i)
		}
	}
}

func TestMDGrid(t *testing.T) {
	cfg := testConfig()
	cfg.Disc = ModelBased
	sp := newSpace(cfg)
	if sp.grid[0] != 0 {
		t.Errorf("MD grid must start with the 0 floor bucket, got %v", sp.grid[0])
	}
	// Every grid point beyond the floor is a real latency <= SLO of some
	// Pareto-front model.
	front := cfg.Models.ParetoFront()
	for _, g := range sp.grid[1:] {
		if g > cfg.SLO {
			t.Errorf("MD grid point %v exceeds SLO", g)
		}
		found := false
		for _, p := range front.Profiles {
			for b := 1; b <= min(cfg.MaxQueue, p.MaxBatch()); b++ {
				if math.Abs(p.BatchLatency(b)-g) < 1e-9 {
					found = true
				}
			}
		}
		if !found {
			t.Errorf("MD grid point %v is not a model latency", g)
		}
	}
	// Strictly ascending, unique.
	for i := 1; i < len(sp.grid); i++ {
		if sp.grid[i] <= sp.grid[i-1] {
			t.Fatalf("MD grid not strictly ascending at %d", i)
		}
	}
}

func TestStateIndexRoundTrip(t *testing.T) {
	sp := newSpace(testConfig())
	seen := map[int]bool{sp.emptyState(): true, sp.overflowState(): true}
	for n := 1; n <= sp.cfg.MaxQueue; n++ {
		for j := 0; j < len(sp.grid); j++ {
			s := sp.index(n, j)
			if seen[s] {
				t.Fatalf("index collision at (%d,%d) -> %d", n, j, s)
			}
			seen[s] = true
			gn, gj := sp.decompose(s)
			if gn != n || gj != j {
				t.Fatalf("decompose(%d) = (%d,%d), want (%d,%d)", s, gn, gj, n, j)
			}
			if s <= 0 || s >= sp.numStates()-1 {
				t.Fatalf("index(%d,%d) = %d outside (0, %d)", n, j, s, sp.numStates()-1)
			}
		}
	}
	if len(seen) != sp.numStates() {
		t.Errorf("indexing covers %d states, want %d", len(seen), sp.numStates())
	}
}

func TestBucketOfProperties(t *testing.T) {
	sp := newSpace(testConfig())
	f := func(raw float64) bool {
		slack := math.Abs(raw)
		if math.IsNaN(slack) || math.IsInf(slack, 0) {
			return true
		}
		if slack > 10 {
			slack = math.Mod(slack, 0.2)
		}
		j := sp.bucketOf(slack)
		if j < 0 || j >= len(sp.grid) {
			return false
		}
		// T_j <= slack (conservative underestimate), except the floor.
		if j > 0 && sp.grid[j] > slack+1e-12 {
			return false
		}
		// And slack < T_{j+1} when one exists.
		if j+1 < len(sp.grid) && slack >= sp.grid[j+1] && sp.grid[j+1] > slack {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	// Exact grid values map to their own bucket.
	for j, g := range sp.grid {
		if got := sp.bucketOf(g); got != j {
			t.Errorf("bucketOf(grid[%d]) = %d", j, got)
		}
	}
}

func TestStateFor(t *testing.T) {
	sp := newSpace(testConfig())
	if got := sp.stateFor(0, 0.1); got != sp.emptyState() {
		t.Errorf("stateFor(0) = %d, want empty", got)
	}
	if got := sp.stateFor(sp.cfg.MaxQueue+5, 0.1); got != sp.overflowState() {
		t.Errorf("stateFor(overlong) = %d, want overflow", got)
	}
	if got := sp.stateFor(3, 0.05); got != sp.index(3, sp.bucketOf(0.05)) {
		t.Errorf("stateFor(3, 50ms) = %d", got)
	}
}

func TestActionsValidity(t *testing.T) {
	sp := newSpace(testConfig())
	for n := 1; n <= sp.cfg.MaxQueue; n++ {
		for _, slack := range []float64{0, 0.02, 0.08, 0.15} {
			acts := sp.actionsFor(n, slack)
			if len(acts) == 0 {
				t.Fatalf("no actions at (n=%d, slack=%v)", n, slack)
			}
			forced := len(acts) == 1 && !acts[0].Satisfies
			for _, a := range acts {
				if a.Satisfies && a.Latency > slack {
					t.Fatalf("action marked satisfying but latency %v > slack %v", a.Latency, slack)
				}
				if !a.Satisfies && !forced {
					t.Fatalf("non-forced unsatisfying action at (n=%d, slack=%v)", n, slack)
				}
				if a.Batch != n {
					t.Fatalf("maximal batching produced batch %d != n %d", a.Batch, n)
				}
			}
			if forced && acts[0].Model != sp.fastestModel() {
				t.Fatalf("forced action uses model %d, want fastest %d", acts[0].Model, sp.fastestModel())
			}
		}
	}
}

func TestActionsVariableBatching(t *testing.T) {
	cfg := testConfig()
	cfg.Batching = VariableBatching
	sp := newSpace(cfg)
	acts := sp.actionsFor(5, 0.15)
	sawSmall := false
	for _, a := range acts {
		if a.Batch < 1 || a.Batch > 5 {
			t.Fatalf("variable batch %d outside [1,5]", a.Batch)
		}
		if a.Batch < 5 {
			sawSmall = true
		}
		if a.Satisfies && a.Latency > 0.15 {
			t.Fatal("invalid action accepted")
		}
	}
	if !sawSmall {
		t.Error("variable batching offered no partial batches")
	}
	// Variable strictly enlarges the action space versus maximal.
	spMax := newSpace(testConfig())
	if len(acts) <= len(spMax.actionsFor(5, 0.15)) {
		t.Error("variable action space not larger than maximal")
	}
}

func TestParetoPruningShrinksActionModels(t *testing.T) {
	pruned := newSpace(testConfig())
	cfg := testConfig()
	cfg.NoParetoPruning = true
	full := newSpace(cfg)
	if pruned.models.Len() != 9 {
		t.Errorf("pruned action models = %d, want 9 (Fig. 3)", pruned.models.Len())
	}
	if full.models.Len() != 26 {
		t.Errorf("unpruned action models = %d, want 26", full.models.Len())
	}
}

func TestEmptyStateSingleArrivalAction(t *testing.T) {
	sp := newSpace(testConfig())
	acts := sp.actionsForState(sp.emptyState())
	if len(acts) != 1 || acts[0].Model != arrivalAction {
		t.Fatalf("empty state actions = %+v, want single arrival action", acts)
	}
}

func TestOverflowStateForcedAction(t *testing.T) {
	sp := newSpace(testConfig())
	acts := sp.actionsForState(sp.overflowState())
	if len(acts) != 1 || acts[0].Satisfies {
		t.Fatalf("overflow state actions = %+v, want single forced action", acts)
	}
	if acts[0].Batch != sp.cfg.MaxQueue {
		t.Errorf("overflow forced batch = %d, want N_w", acts[0].Batch)
	}
}

func TestReward(t *testing.T) {
	sp := newSpace(testConfig())
	sat := actionSpec{Model: 0, Batch: 3, Satisfies: true}
	if got, want := sp.reward(sat), sp.models.Profiles[0].Accuracy; got != want {
		t.Errorf("reward = %v, want accuracy %v", got, want)
	}
	if got := sp.reward(actionSpec{Model: 0, Batch: 3}); got != 0 {
		t.Errorf("unsatisfied reward = %v, want 0", got)
	}
	if got := sp.reward(actionSpec{Model: arrivalAction, Satisfies: true}); got != 0 {
		t.Errorf("arrival reward = %v, want 0", got)
	}
}

func TestConfigValidate(t *testing.T) {
	good := testConfig()
	if err := good.validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	cases := []func(*Config){
		func(c *Config) { c.Models = profile.Set{} },
		func(c *Config) { c.SLO = 0 },
		func(c *Config) { c.SLO = math.Inf(1) },
		func(c *Config) { c.Workers = 0 },
		func(c *Config) { c.Arrival = nil },
		func(c *Config) { c.D = -1 },
		func(c *Config) { c.MaxQueue = -2 },
		func(c *Config) { c.Gamma = 1.5 },
		func(c *Config) { c.ProbFloor = -1e-10 },
		func(c *Config) { c.ProbFloor = math.NaN() },
		func(c *Config) { c.ProbFloor = 1 },
	}
	for i, mutate := range cases {
		c := testConfig()
		mutate(&c)
		if err := c.validate(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
	// Queue bounds beyond the profiled batch range are valid: batches clamp
	// to each model's profiled maximum and over-long queues drain partially.
	big := testConfig()
	big.MaxQueue = profile.MaxSupportedBatch * 10
	if err := big.validate(); err != nil {
		t.Errorf("10x max-queue config rejected: %v", err)
	}
}
