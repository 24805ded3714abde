package bench

import (
	"math/rand"

	"ramsis/internal/profile"
	"ramsis/internal/serve"
	"ramsis/internal/telemetry"
	"ramsis/internal/tenant"
)

// planeBurst drives the live sharded plane: the only workload where serve,
// tenant, admit and telemetry do the work and mdp and sim do none.
//
// Inference is zero-length. time.Sleep has a ~1 ms floor on this host, so
// at the micro-benchmarks' TimeScale=20000 nine tenths of a burst's wall
// time is the kernel timer (32 µs/query against 3 µs with no sleep). At
// planeTimeScale every profiled latency rounds to a 0 ns sleep and what is
// left is the serving path: resolve, shard pick, admit, ring, select, wire,
// worker handler, respond. Tenant SLOs are scaled to 100 ms of wall time,
// three orders of magnitude above a round.
//
// Load is a closed loop of planeBurstSize callers issued from one
// goroutine: route a burst, receive every response, repeat. Bursts put
// several queries on a ring at once, so batching is exercised; a single
// blocked caller per query would not.
type planeBurst struct {
	tenants []string
	cluster *serve.ShardedCluster
	acc     map[string]float64
	// base and dispatched are the gateway's and shards' counters at the end
	// of the previous pass; a pass reports the difference.
	base       serve.GatewayStats
	dispatched int
}

const (
	planeTimeScale = 1e10
	planeBurstSize = 32
	planeRounds    = 12500 // 400 k queries, about 1.2 s a pass here
	planeLapRounds = 1250  // a lap is about 0.12 s
)

// planeTenants is the contract set: gold offers two thirds of the traffic,
// silver one third, both inside contract at any wall rate this host can
// offer (a modeled QPS is 1e10 wall QPS). The buckets hold a full burst.
var planeTenants = []tenant.Tenant{
	{Name: "gold", Class: "interactive", SLOMS: 1e12, Weight: 2, RateQPS: 2, BurstSec: 32},
	{Name: "silver", Class: "standard", SLOMS: 2e12, Weight: 1, RateQPS: 1, BurstSec: 32},
}

func (w *planeBurst) exact() bool { return false }

func (w *planeBurst) prepare(seed int64, smoke bool) {
	rounds := planeRounds
	if smoke {
		rounds /= 50
	}
	weights := make([]float64, len(planeTenants))
	for i, t := range planeTenants {
		weights[i] = t.RateQPS
	}
	seq := weightedSequence(rand.New(rand.NewSource(seed)), rounds*planeBurstSize, weights)
	w.tenants = make([]string, len(seq))
	for i, k := range seq {
		w.tenants[i] = planeTenants[k].Name
	}
	w.acc = map[string]float64{}
	for _, p := range profile.ImageSet().Profiles {
		w.acc[p.Name] = p.Accuracy
	}
}

func planeConfig() serve.ShardedConfig {
	return serve.ShardedConfig{
		Models:          profile.ImageSet(),
		Tenants:         planeTenants,
		Shards:          2,
		WorkersPerShard: 1,
		TimeScale:       planeTimeScale,
		Seed:            1,
		D:               40,
		ShardBy:         "p2c",
		Telemetry:       telemetry.NewRegistry(),
	}
}

func (w *planeBurst) setUp(rec *recorder, _ *laps) error {
	id := rec.begin("serve.StartShardedCluster")
	c, err := serve.StartShardedCluster(planeConfig())
	rec.end(id)
	w.cluster = c
	w.base, w.dispatched = serve.GatewayStats{}, 0
	return err
}

func (w *planeBurst) verify() []string { return nil }

func (w *planeBurst) tearDown() {
	if w.cluster != nil {
		w.cluster.Stop()
		w.cluster = nil
	}
}

func (w *planeBurst) serve(rec *recorder, l *laps) pass {
	p := pass{counts: map[string]float64{}}
	p.burst(rec, l, w.tenants, w.acc, w.cluster.Gateway.Route)

	for i, fe := range w.cluster.Shards() {
		if n := fe.Outstanding(); n != 0 {
			p.failf("shard %d holds %d queries after the last response", i, n)
		}
	}
	st := w.cluster.Gateway.Stats()
	served := int64(st.Served - w.base.Served)
	shed := int64(st.Shed - w.base.Shed)
	failed := int64(st.FailedDispatches - w.base.FailedDispatches)
	w.base = st
	if served+shed != p.offered {
		p.failf("gateway counted %d served + %d shed for %d offered", served, shed, p.offered)
	}
	if shed != 0 || failed != 0 {
		p.failf("in-contract traffic saw %d shed and %d failed dispatches", shed, failed)
	}
	p.counts["serve.dispatches"] = float64(w.dispatches())
	if d := p.counts["serve.dispatches"]; d > 0 {
		p.counts["serve.batch_mean"] = float64(served) / d
	}
	return p
}

// dispatches sums the /infer POSTs the shards have attempted since the
// previous call.
func (w *planeBurst) dispatches() int {
	total := 0
	for _, fe := range w.cluster.Shards() {
		for _, n := range fe.Stats().WorkerDispatches {
			total += n
		}
	}
	delta := total - w.dispatched
	w.dispatched = total
	return delta
}

// burst issues the tenant sequence in rounds of planeBurstSize through
// route, receiving every response of a round before the next, and checks
// that each query is answered exactly once. It laps every planeLapRounds.
func (p *pass) burst(rec *recorder, l *laps, tenants []string, acc map[string]float64,
	route func(string) (<-chan serve.QueryResponse, *serve.EnqueueError)) {
	var pending [planeBurstSize]<-chan serve.QueryResponse
	for start := 0; start+planeBurstSize <= len(tenants); start += planeBurstSize {
		id := rec.begin("serve.round")
		for i := range pending {
			ch, eerr := route(tenants[start+i])
			if eerr != nil {
				p.errored++
				ch = nil
			}
			pending[i] = ch
		}
		for _, ch := range pending {
			if ch == nil {
				continue
			}
			r := <-ch
			if r.Error != "" {
				p.errored++
			} else if r.DeadlineMet {
				p.satisfied++
				p.accSum += acc[r.Model]
			}
			select {
			case <-ch:
				p.failf("query %d answered twice", r.ID)
			default:
			}
		}
		rec.end(id)
		p.offered += planeBurstSize
		if p.offered%(planeLapRounds*planeBurstSize) == 0 {
			l.lap()
		}
	}
}
