package core

import (
	"math"
	"sort"

	"ramsis/internal/profile"
)

// arrivalAction marks the special action â taken in an empty-queue state
// (§4.3.4): the worker idles until the next query arrives.
const arrivalAction = -1

// actionSpec is one valid MS decision in a state: run Batch queries on
// Models.Profiles[Model]. Satisfies records SLOSatisfied(s, a) — whether the
// action's latency meets the state's slack (§4.1). Model == arrivalAction
// encodes â.
type actionSpec struct {
	Model     int
	Batch     int
	Latency   float64
	Satisfies bool
}

// space is the worker MDP's state space: the slack-time grid T_w plus the
// indexing of states (n, T_j), the empty state, and the full-queue state
// (φ, ∅) of §4.2.3.
type space struct {
	cfg    Config
	models profile.Set // action models (Pareto-pruned unless disabled)
	grid   []float64   // T_w, ascending; grid[0] == 0 (floor bucket)
}

// newSpace builds the state space for a validated config.
func newSpace(cfg Config) *space {
	models := cfg.Models
	if !cfg.NoParetoPruning {
		models = models.ParetoFront()
	}
	sp := &space{cfg: cfg, models: models}
	switch cfg.Disc {
	case FixedLength:
		sp.grid = fldGrid(cfg.SLO, cfg.D)
	case ModelBased:
		sp.grid = mdGrid(models, cfg.SLO, cfg.MaxQueue)
	}
	return sp
}

// fldGrid is the Fixed Length Discretization (§4.2.2):
// {0, SLO/D, 2·SLO/D, ..., SLO}.
func fldGrid(slo float64, d int) []float64 {
	g := make([]float64, d+1)
	for i := range g {
		g[i] = slo * float64(i) / float64(d)
	}
	return g
}

// mdGrid is the Model-based Discretization (§4.2.1): the unique inference
// latencies l_w(m, b) <= SLO over the action models and b <= min(B_w, N_w),
// with a zero floor bucket prepended so slacks below the smallest latency
// (where no action is valid) are representable.
func mdGrid(models profile.Set, slo float64, maxQueue int) []float64 {
	var lats []float64
	for _, p := range models.Profiles {
		maxB := p.MaxBatch()
		if maxB > maxQueue {
			maxB = maxQueue
		}
		for b := 1; b <= maxB; b++ {
			if l := p.BatchLatency(b); l <= slo {
				lats = append(lats, l)
			}
		}
	}
	sort.Float64s(lats)
	grid := []float64{0}
	const eps = 1e-9
	for _, l := range lats {
		if l > grid[len(grid)-1]+eps {
			grid = append(grid, l)
		}
	}
	return grid
}

// Indexing: state 0 is the empty queue; states 1 .. N_w·|T_w| are (n, T_j)
// with n in [1, N_w] and j in [0, |T_w|-1]; the last state is (φ, ∅).

func (sp *space) numStates() int {
	return 2 + sp.cfg.MaxQueue*len(sp.grid)
}

func (sp *space) emptyState() int { return 0 }

func (sp *space) overflowState() int { return 1 + sp.cfg.MaxQueue*len(sp.grid) }

// index returns the state index for (n, T_j) with 1 <= n <= N_w.
func (sp *space) index(n, j int) int {
	return 1 + (n-1)*len(sp.grid) + j
}

// decompose inverts index for non-special states.
func (sp *space) decompose(s int) (n, j int) {
	s--
	return s/len(sp.grid) + 1, s % len(sp.grid)
}

// bucketOf returns the largest j with T_j <= slack (§4.2): the conservative
// discretization that may underestimate but never overestimate real slack.
// Slacks below T_0 = 0 floor to bucket 0.
func (sp *space) bucketOf(slack float64) int {
	j := sort.SearchFloat64s(sp.grid, slack)
	if j < len(sp.grid) && sp.grid[j] == slack {
		return j
	}
	if j == 0 {
		return 0
	}
	return j - 1
}

// stateFor maps an online worker-queue observation to a state index,
// truncating over-long queues to the full-queue state (§4.2.3).
func (sp *space) stateFor(n int, slack float64) int {
	if n <= 0 {
		return sp.emptyState()
	}
	if n > sp.cfg.MaxQueue {
		return sp.overflowState()
	}
	return sp.index(n, sp.bucketOf(slack))
}

// fastestModel returns the index in sp.models of the lowest-latency model,
// the forced choice when no action satisfies the slack (§4.3.1).
func (sp *space) fastestModel() int {
	best, bestLat := 0, math.Inf(1)
	for i, p := range sp.models.Profiles {
		if l := p.BatchLatency(1); l < bestLat {
			best, bestLat = i, l
		}
	}
	return best
}

// actionsFor enumerates the valid actions in state (n, T_j) per §4.3:
// latency-constrained to l_w(m,b) <= T_j, batch-constrained per the batching
// strategy, over the (pruned) model set. When no action satisfies the slack,
// the single forced action (m_min, n) is returned with Satisfies == false
// ("better served late than never", §4.3.1). For the empty state (n == 0)
// the single arrival action is returned.
func (sp *space) actionsFor(n int, slack float64) []actionSpec {
	if n == 0 {
		return []actionSpec{{Model: arrivalAction, Satisfies: true}}
	}
	var acts []actionSpec
	for mi, p := range sp.models.Profiles {
		// Queues beyond the profiled batch range drain in partial batches:
		// b = all queued queries clamped to the model's profiled maximum.
		maxB := min(n, p.MaxBatch())
		switch sp.cfg.Batching {
		case MaximalBatching:
			if l := p.BatchLatency(maxB); l <= slack {
				acts = append(acts, actionSpec{Model: mi, Batch: maxB, Latency: l, Satisfies: true})
			}
		case VariableBatching:
			for b := 1; b <= maxB; b++ {
				if l := p.BatchLatency(b); l <= slack {
					acts = append(acts, actionSpec{Model: mi, Batch: b, Latency: l, Satisfies: true})
				}
			}
		}
	}
	if len(acts) == 0 {
		mi := sp.fastestModel()
		b := min(n, sp.models.Profiles[mi].MaxBatch())
		acts = append(acts, actionSpec{
			Model:   mi,
			Batch:   b,
			Latency: sp.models.Profiles[mi].BatchLatency(b),
		})
	}
	return acts
}

// actionsForState enumerates actions by state index, treating the full-queue
// state as (N_w, 0) per §4.2.3.
func (sp *space) actionsForState(s int) []actionSpec {
	switch s {
	case sp.emptyState():
		return sp.actionsFor(0, 0)
	case sp.overflowState():
		return sp.actionsFor(sp.cfg.MaxQueue, 0)
	}
	n, j := sp.decompose(s)
	return sp.actionsFor(n, sp.grid[j])
}

// reward implements R_a(s, s') = Accuracy(a) · SLOSatisfied(s, a) (§4.1).
func (sp *space) reward(a actionSpec) float64 {
	if a.Model == arrivalAction || !a.Satisfies {
		return 0
	}
	return sp.models.Profiles[a.Model].Accuracy
}
