package bench

import (
	"math/rand"

	"ramsis/internal/core"
	"ramsis/internal/dist"
	"ramsis/internal/monitor"
	"ramsis/internal/profile"
	"ramsis/internal/sim"
	"ramsis/internal/trace"
)

// The image-zoo deployment the scalar workloads share: the paper's Fig. 5
// scenario (26 ImageNet models, 300 ms SLO) on 80 workers.
const (
	imageSLO     = 0.300
	imageWorkers = 80
	imageD       = 50
)

// imageConfig is the generation problem at one load. smoke coarsens the
// slack grid and the transition quadrature so the tests' set-ups are fast.
func imageConfig(load float64, smoke bool) core.Config {
	cfg := core.Config{
		Models:  profile.ImageSet(),
		SLO:     imageSLO,
		Workers: imageWorkers,
		Arrival: dist.NewPoisson(load),
		D:       imageD,
	}
	if smoke {
		cfg.D, cfg.FineCells = 10, 32
	}
	return cfg
}

// twitterReplay replays the Twitter production trace through the
// virtual-time engine under a pre-generated policy ladder.
//
// Set-up is the cold ladder (core transition build + mdp cold solve per
// rung) and does none of the serving; the serve phase is sim.Engine,
// Policy.Select, lb and monitor and does no generation. The ladder tops out
// at 4400 QPS — the 3905-QPS trace peak plus 5.6 σ of the 500 ms monitor's
// noise — so the monitored load never triggers PolicySet.PolicyFor's
// on-demand generation (which cost 0.8 s inside the first pass when it
// did); the run fails if the ladder grows. It stops there because 80
// workers cannot hold the SLO at 4800 QPS under any policy.
type twitterReplay struct {
	smoke   bool
	streams [][]float64
	set     *core.PolicySet
}

var twitterLadder = []float64{1600, 2300, 3000, 3700, 4400}

const twitterStreams = 5 // independent arrival streams per pass (~2.8 M queries)

func (w *twitterReplay) exact() bool { return true }

func (w *twitterReplay) prepare(seed int64, smoke bool) {
	w.smoke = smoke
	tr := trace.Twitter()
	qps, n := tr.QPS, twitterStreams
	if smoke {
		qps, n = qps[:3], 1
	}
	w.streams = make([][]float64, n)
	for i := range w.streams {
		rng := rand.New(rand.NewSource(seed*1000 + int64(i)))
		w.streams[i] = poissonArrivals(rng, qps, tr.IntervalSec)
	}
}

func (w *twitterReplay) setUp(rec *recorder, _ *laps) error {
	w.set = core.NewPolicySet(imageConfig(1, w.smoke), nil)
	id := rec.begin("core.PolicySet.GenerateLoads")
	err := w.set.GenerateLoads(twitterLadder)
	rec.end(id)
	return err
}

func (w *twitterReplay) verify() []string { return nil }

func (w *twitterReplay) tearDown() { w.set = nil }

func (w *twitterReplay) serve(rec *recorder, l *laps) pass {
	p := pass{counts: map[string]float64{}}
	models := profile.ImageSet()
	for _, arrivals := range w.streams {
		sched := sim.NewRAMSIS(w.set, monitor.NewMovingAverage(0.5))
		e := sim.NewEngine(models, imageSLO, imageWorkers, sim.Deterministic{}, sched, 1)
		id := rec.begin("sim.Engine.Run")
		m := e.Run(arrivals)
		rec.end(id)
		p.addSim(m, len(arrivals))
		l.lap()
	}
	if got := len(w.set.Policies()); got != len(twitterLadder) {
		p.failf("policy ladder grew to %d rungs while serving, want %d", got, len(twitterLadder))
	}
	return p
}

// addSim folds one virtual-time run into the pass and checks that every
// offered query is accounted for.
func (p *pass) addSim(m sim.Metrics, offered int) {
	p.offered += int64(offered)
	p.satisfied += int64(m.Served - m.Violations)
	p.accSum += m.SatAccSum
	p.errored += int64(m.FailedDispatches)
	if got := m.Served + m.Shed + m.Dropped + m.Unserved; got != offered {
		p.failf("offered %d != served %d + shed %d + dropped %d + unserved %d",
			offered, m.Served, m.Shed, m.Dropped, m.Unserved)
	}
	p.counts["sim.decisions"] += float64(m.Decisions)
	if ms := m.LatencyP99 * 1e3; ms > p.counts["sim.latency_p99_ms"] {
		p.counts["sim.latency_p99_ms"] = ms
	}
}
