package ramsis

// Data-plane benchmarks: the end-to-end per-query cost of the serving hot
// path, measured in-process over a loopback cluster (real worker HTTP
// dispatch, real telemetry, real admission) with parallel client
// goroutines. The profiled inference latencies are compressed to the
// microsecond range by a large TimeScale so what the numbers capture is the
// serving overhead — enqueue, routing, batching, dispatch, response — not
// the modeled model math. allocs/op here is the steady-state per-query
// allocation count across the whole process (client, frontend, worker);
// TestDataPlaneAllocCeilings holds it, and the step loop's, under a ceiling
// in every `go test` run. The timings are recorded by the repository
// benchmark (bench/: serve.frontend_us_per_query, serve.gateway_us_per_query,
// runtime.allocs_per_query), not here.

import (
	"runtime"
	"testing"

	"ramsis/internal/profile"
	"ramsis/internal/sched"
	"ramsis/internal/serve"
	"ramsis/internal/telemetry"
	"ramsis/internal/tenant"
)

// benchTimeScale compresses modeled time so profiled inference latencies
// sleep for microseconds: the benchmark then measures the data plane, not
// the model zoo.
const benchTimeScale = 20000

// benchSelector is a fixed greedy selector (fastest model, batch = queue
// length capped at the profile's max) so the benchmark exercises the
// serving path without coupling to MDP solve behaviour.
func benchSelector(models profile.Set) sched.Selector {
	fastest := models.Fastest()
	maxB := fastest.MaxBatch()
	return func(_, _ float64, n int, _ float64) (string, int) {
		b := n
		if b > maxB {
			b = maxB
		}
		if b < 1 {
			b = 1
		}
		return fastest.Name, b
	}
}

// BenchmarkFrontendQuery measures one client query end to end through a
// single-tenant frontend over two loopback HTTP workers: enqueue, balancer
// pick, batch formation, worker dispatch, telemetry, response.
func BenchmarkFrontendQuery(b *testing.B) {
	models := profile.ImageSet()
	c, err := serve.StartCluster(serve.ClusterConfig{
		Models:    models,
		Workers:   2,
		SLO:       60,
		TimeScale: benchTimeScale,
		Select:    benchSelector(models),
		Seed:      1,
		Telemetry: telemetry.NewRegistry(),
	})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Stop()

	b.SetParallelism(8)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			resp, eerr := c.Frontend.Do("")
			if eerr != nil {
				b.Errorf("enqueue: %v", eerr)
				continue
			}
			if resp.Error != "" {
				b.Errorf("dispatch: %s", resp.Error)
			}
		}
	})
	b.StopTimer()
}

// BenchmarkShardedGatewayQuery measures the same query through the full
// multi-tenant plane: gateway tenant resolution, shard pick, weighted-fair
// admission, shard frontend, worker dispatch. Two shards of one worker
// each; the tenant's contract is deep enough that nothing sheds, so every
// op is a served query.
func BenchmarkShardedGatewayQuery(b *testing.B) {
	models := profile.ImageSet()
	c, err := serve.StartShardedCluster(serve.ShardedConfig{
		Models: models,
		Tenants: []tenant.Tenant{
			{Name: "bench", Class: "interactive", SLOMS: 250, Weight: 1, RateQPS: 50, BurstSec: 10},
		},
		Shards:          2,
		WorkersPerShard: 1,
		TimeScale:       benchTimeScale,
		Seed:            1,
		D:               10,
		QueueSlack:      4,
		ShardBy:         "p2c",
		Telemetry:       telemetry.NewRegistry(),
	})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Stop()

	b.SetParallelism(8)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			resp, eerr := c.Gateway.Do("bench")
			if eerr != nil {
				b.Errorf("route: %v", eerr)
				continue
			}
			if resp.Error != "" {
				b.Errorf("dispatch: %s", resp.Error)
			}
		}
	})
	b.StopTimer()
}

// TestDataPlaneAllocCeilings fails when the query path, the step loop or the
// policy lookup allocates more per operation than it does today. It runs the
// benchmark bodies themselves, so the count is the one `go test -bench
// -benchmem` prints. The data-plane counts are the query's trace-ID string
// plus the per-batch allocations spread over the batch, so they can fall as
// GOMAXPROCS grows (more concurrent callers, larger batches); the test pins
// GOMAXPROCS to 2, where the ceilings were measured: 1.33 and 1.36
// allocations per query (7.4 and 7.8 while the worker's net/http server
// parsed every dispatch), compared rounded down, so one more allocation on
// the enqueue or dispatch path lands on the ceiling and two land over it.
//
// The other five rows are single-goroutine and count whole runs: the step
// loop (a 400-query run) under a fixed and under a token-policy selector,
// the lookup (0) and the two scalar simulator runs, the central-queue path
// (SimulatorThroughput, 20,141 queries) and the balancer + policy path
// (RAMSISScheduler, 24,070 queries). A run's own count is fixed — 152, 83,
// 0, 142 and 393 with the collector off — but GC cycles move what the
// benchmark reads by up to about one allocation per run: a RAMSISScheduler
// run allocates 1.2 MB, and the runtime adds about one allocation per
// cycle it starts, so it reads 393.96-394.01, and
// SimulatorThroughput 142.67-142.76. Truncating that straddles an integer
// (against the old ceiling of 393 RAMSISScheduler failed 4 runs in 6), so
// these rows compare the rounded count, and each simulator row's ceiling is
// its run's count plus that one. The simulator rows are per-run
// set-up alone: the engine keeps its queue, batch and length storage, so no
// allocation scales with the queries, and one added to the engine's arrival
// or dispatch path fails by thousands. They add about 3 s to this test.
func TestDataPlaneAllocCeilings(t *testing.T) {
	if serve.RaceEnabled {
		t.Skip("under the race detector sync.Pool drops items on purpose: the counts are not the plain build's")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	for _, tc := range []struct {
		name    string
		bench   func(*testing.B)
		ceiling int64
		perRun  bool // a single-goroutine run: compare the rounded count
	}{
		{"FrontendQuery", BenchmarkFrontendQuery, 2, false},
		{"ShardedGatewayQuery", BenchmarkShardedGatewayQuery, 2, false},
		{"LLMStepLoop", BenchmarkLLMStepLoop, 153, true},
		{"LLMPolicyStepLoop", BenchmarkLLMPolicyStepLoop, 83, true},
		{"PolicySelect", BenchmarkPolicySelect, 0, true},
		{"SimulatorThroughput", BenchmarkSimulatorThroughput, 143, true},
		{"RAMSISScheduler", BenchmarkRAMSISScheduler, 394, true},
	} {
		r := testing.Benchmark(tc.bench)
		if r.N == 0 {
			t.Errorf("Benchmark%s failed", tc.name)
			continue
		}
		t.Logf("Benchmark%s: %.2f allocs/op over %d ops", tc.name, float64(r.MemAllocs)/float64(r.N), r.N)
		got := r.AllocsPerOp()
		if tc.perRun {
			got = int64((r.MemAllocs + uint64(r.N)/2) / uint64(r.N))
		}
		if got > tc.ceiling {
			t.Errorf("Benchmark%s: %d allocs/op, ceiling %d", tc.name, got, tc.ceiling)
		}
	}
}
