GO ?= go

.PHONY: build test vet lint staticcheck size race goldens bench-module verify bench-smoke fuzz-smoke profile soak soak-smoke saturate saturate-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Pinned staticcheck version: CI runs it via `go run` (module-cached by
# setup-go); locally it only runs when a staticcheck binary is already on
# PATH, so `make verify` never reaches for the network.
STATICCHECK_VERSION := 2024.1.1

# Formatting gate: gofmt must have nothing to rewrite. gofmt -l prints
# offending files and always exits 0, so fail on non-empty output.
# Network gate: the serving plane reaches the wire one way, through the
# default network's listen and dial in internal/serve/process.go. Any other
# net.Listen* or net.Dial* (net.ListenConfig, net.ListenPacket and
# net.Dialer included) in non-test code under internal/ fails; the
# net.Listener type, which a server names to accept on, does not. Any
# net/http import in internal/lb fails too: its health tracker takes its
# probes from the caller.
# Clock gate: a serving process holds modeled time through its process's
# clock, whose default, the wall clock in internal/serve/process.go, is the
# one place modeled time becomes a wall sleep. A time.Sleep anywhere else in
# non-test internal/serve code is a hold no substituted clock can see, so it
# fails.
# staticcheck runs when available (CI always; locally if installed).
lint:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi
	@hits="$$(grep -rn --include='*.go' --exclude='*_test.go' -E 'net\.(Listen([^e]|$$)|Dial)' internal)"; \
	if [ "$$(printf '%s\n' "$$hits" | grep -c '^internal/serve/process.go:')" != 2 ] || \
		[ "$$(printf '%s\n' "$$hits" | grep -c .)" != 2 ]; then \
		echo "net.Listen/net.Dial outside the default network (internal/serve/process.go):"; \
		echo "$$hits"; exit 1; fi
	@out="$$(grep -rln --include='*.go' '"net/http' internal/lb)"; if [ -n "$$out" ]; then \
		echo "internal/lb imports net/http:"; echo "$$out"; exit 1; fi
	@hits="$$(grep -rn --include='*.go' --exclude='*_test.go' 'time\.Sleep' internal/serve | grep -v '^internal/serve/process.go:')"; \
	if [ -n "$$hits" ]; then \
		echo "time.Sleep outside the plane's clock (internal/serve/process.go):"; \
		echo "$$hits"; exit 1; fi
	$(GO) vet ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		echo "staticcheck ./..."; staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI runs it pinned at $(STATICCHECK_VERSION))"; \
	fi

# CI-only: fetch and run the pinned staticcheck. Not part of local verify so
# offline development never needs the network.
staticcheck:
	$(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) ./...

# The eight non-test line counts ROADMAP.md tracks, by the one command every
# size claim in CHANGES.md is made with. CI's lint job runs it, so a PR's
# claim is a log line.
define SIZE_OF
@printf '%6d  %s\n' "$$(find $(1) -name '*.go' ! -name '*_test.go' | xargs cat | wc -l)" '$(1)'
endef

size:
	$(call SIZE_OF,internal)
	$(call SIZE_OF,internal/mdp internal/core)
	$(call SIZE_OF,cmd/serve cmd/simulate)
	$(call SIZE_OF,internal/sim)
	$(call SIZE_OF,internal/serve)
	$(call SIZE_OF,internal/sim internal/serve internal/llm internal/sched internal/baselines)
	$(call SIZE_OF,internal/experiments cmd/experiments)
	$(call SIZE_OF,internal/core internal/adapt internal/sched)

# The admit, lb, serve, telemetry, adapt, tenant, llm, sim, sched and
# monitor packages are the concurrency-heavy ones (the degrader's atomic
# level + locked windows, balancers, health tracker, per-worker queue locks,
# HTTP dispatch and the /query shed path, the lock-free metrics registry,
# the background policy re-solve / hot-swap path, the fair admitter +
# hot-reloaded tenant registry, and the continuous-batching LLM worker's
# step loop vs handler handoff — llm and sim back that worker's model and
# selector types, sched is the dispatch core every frontend handler and
# worker loop calls without a lock of its own, and monitor.Locked is the
# one lock around each rate monitor those handlers observe and the worker
# loops and metrics scrapes read); run them under the race
# detector. Their tests scale sleeps by TimeScale, so the race pass stays
# within a CI budget; the explicit timeout is for small boxes — on two cores
# the whole target takes ~2 min 10 s, with sim (~90 s) and serve (~77 s)
# under the detector side by side (serve took ~135 s while its on-demand
# generation leak test waited on a D = 100 rung, ~48 s alone; at D = 10 it
# takes ~1 s). cmd/serve's smoke tests start and stop every deployment the
# binary can (~14 s under the detector); cmd/simulate is single-goroutine
# and ~90 s, so it stays out.
race:
	$(GO) test -race -timeout 15m ./internal/admit/ ./internal/adapt/ ./internal/lb/ ./internal/serve/ ./internal/telemetry/ ./internal/tenant/ ./internal/llm/ ./internal/sim/ ./internal/sched/ ./internal/monitor/ ./cmd/serve/

# Multi-tenant serving-plane soak: ≥100k offered wall QPS across 4 shards
# and 3 tenants, one offering 4× its contract; asserts compliant goodput
# ≥ 0.9 from the gateway's /metrics exposition and exits non-zero on any
# miss. soak-smoke is the CI-scale variant (same assertions, ~2k QPS).
soak:
	$(GO) run ./cmd/soak

# soak-smoke saves the final /metrics scrape and the plane's merged trace
# JSONL so CI can upload them as build artifacts (stitch the latter with
# `go run ./cmd/trace -stitch soak-traces.jsonl`).
soak-smoke:
	$(GO) run ./cmd/soak -target-qps 2000 -qps-floor 1800 -dur 2s \
		-metrics-out soak-metrics.txt -trace-out soak-traces.jsonl

# Wall-clock saturation probe: TimeScale=1, all-out injection, measured
# QPS ceiling and CPU-per-query (the data-plane throughput numbers quoted
# in DESIGN.md). saturate-smoke is the CI-scale variant: shorter window,
# CPU profile captured, and the pprof -top listing saved next to the
# profile so the hot path can be read straight from the build artifact.
saturate:
	$(GO) run ./cmd/soak -saturate -dur 5s

saturate-smoke:
	$(GO) run ./cmd/soak -saturate -dur 2s -cpuprofile soak-cpu.pprof 2>&1 | tee saturate-smoke.out
	$(GO) tool pprof -top -nodecount 20 soak-cpu.pprof | tee soak-cpu-top.txt

# The generation goldens (transition builds and whole generated policies,
# pinned bit for bit) under one and two scheduler threads: both builds fan
# states out across GOMAXPROCS goroutines, so a result that depended on which
# goroutine built which state would show here. The token engine's golden
# (TestLLMEngineGolden: traces, counts and TTFT/TBT multisets over a
# worker / balancer / selector / KV grid) solves its policy the same way.
# The Trimmed tests pin what the goldens' trimmed f̃ gives up against the
# untrimmed reference: every state's choice, and at most (K+2)ε of mass per
# state. TestReachCutBuildMatchesFullTables pins the h tables' cut at each
# rate's reach against tables that run to the action's latency, hash for
# hash. TestLLMPhiTableMatchesDirect pins the token build's per-goroutine
# Φ tables against direct evaluation, row for row; at two workers each table
# sees a different subset of rows. TestDefaultSolverMatchesJacobi's token
# grid pins the banded token solve to Jacobi's choice in every state of 30
# configurations whose builds fan out the same way. TestStationaryMatchesGTH
# bounds the stationary pass on the grid's and the benchmark's policy chains
# by 1e-12 in L1 against an exact GTH solve at both thread counts (~40 s on
# two cores in all). The sim <-> serve differentials and the deadline
# boundary run at both thread counts too (~1 s): the frontend's dispatch
# loop, its worker and the fake clock are goroutines, so an order that
# held only under one scheduling would show here.
goldens:
	$(GO) test -count=1 -cpu 1,2 -run 'Golden|Trimmed|TestReachCutBuildMatchesFullTables|TestLLMPhiTableMatchesDirect|TestStationaryMatchesGTH' ./internal/core/ ./internal/sim/
	$(GO) test -count=1 -cpu 1,2 -run 'TestDefaultSolverMatchesJacobi/llm/' ./internal/core/
	$(GO) test -count=1 -cpu 1,2 -run 'TestFrontendMatchesSimEngine|TestLLMWorkerMatchesSimEngine|TestFrontendQueryFinishingExactlyOnDeadlineMeetsIt' ./internal/serve/

# The repository benchmark (BENCHMARK.json) lives in bench/, a module of
# its own that compiles against this module's internal packages through a
# replace directive — so root `go build/vet/test ./...` never see it, and an
# API move here can break it silently. Vet it and run its tests (~5 s,
# offline: its only dependency is the parent directory).
bench-module:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# Tier-1 verify path (see ROADMAP.md).
verify: build lint test race goldens bench-module

# The root Benchmark* functions are developer tools, not a record: numbers
# are recorded and compared by the repository benchmark alone (`bash
# bench/run.sh`, BENCHMARK.json), and the allocation counts of the query
# path and the step loop are ceilings in TestDataPlaneAllocCeilings. Here
# every benchmark (figure regenerations included) runs exactly once: not a
# perf measurement, just proof the harness cannot silently rot. The
# internal packages' benchmarks (the histogram's, the monitor's, ...) run
# first, in a few seconds. Each root benchmark then runs in its own process
# of one compiled test binary, so one that outgrows a small host's memory
# and is killed fails alone instead of taking every benchmark after it
# down; the target exits non-zero naming every benchmark that failed.
bench-smoke:
	$(GO) test -bench . -benchtime 1x -run '^$$' ./internal/...
	@dir="$$(mktemp -d)"; trap 'rm -rf "$$dir"' EXIT; \
	$(GO) test -c -o "$$dir/root.test" . || exit 1; \
	failed=""; \
	for b in $$("$$dir/root.test" -test.list '^Benchmark'); do \
		echo "--- $$b"; \
		"$$dir/root.test" -test.run '^$$' -test.bench "^$$b$$" -test.benchtime 1x || failed="$$failed $$b"; \
	done; \
	if [ -n "$$failed" ]; then echo "bench-smoke: failed:$$failed"; exit 1; fi

# Every fuzz target of internal/serve (the /infer codecs, the response
# framer and the loop a worker serves a taken-over connection with) and the
# Poisson CDF ladder's, 10 s each: a mutation pass past the
# committed seed corpora, which plain `go test` already replays. go test
# fuzzes one target per run, so the serve targets are listed and run in
# turn. CI runs it in the bench-smoke job; verify does not, since fuzzing
# spends a time budget rather than proving a fixed set of cases.
fuzz-smoke:
	@set -e; for t in $$($(GO) test -list '^Fuzz' ./internal/serve/ | grep '^Fuzz'); do \
		echo "--- $$t"; \
		$(GO) test -run '^$$' -fuzz "^$$t$$" -fuzztime 10s ./internal/serve/; \
	done
	$(GO) test -run '^$$' -fuzz '^FuzzPoissonCDFLadder$$' -fuzztime 10s ./internal/dist/

# CPU- and heap-profile one benchmark — the simulator throughput benchmark
# unless PROFILE_BENCH names another — and print the top hotspots (profiles
# land in ./profiles for interactive pprof use).
# `make profile PROFILE_BENCH='BenchmarkBuildWorkerMDP/4200qps/whole'` is
# the transition build's split quoted in DESIGN.md § "Transition-probability
# computation" (the bare benchmark name would profile every sub-benchmark,
# `prepare` and the variable / Gamma builds included),
# `PROFILE_BENCH=BenchmarkGenerateLLM` the token generation's build / solve /
# stationary-and-expectations split quoted in § "Solver performance" (the
# stationary pass is now its largest piece),
# `PROFILE_BENCH=BenchmarkLLMStepLoop` the step loop's split quoted in
# § "Token-level LLM workload" ("Step-loop cost"), and
# `PROFILE_BENCH=BenchmarkRAMSISScheduler` the scalar engine's balancer +
# policy path ("Engine cost", beside it).
PROFILE_BENCH ?= BenchmarkSimulatorThroughput

profile:
	mkdir -p profiles
	$(GO) test -bench $(PROFILE_BENCH) -run '^$$' \
		-cpuprofile profiles/cpu.out -memprofile profiles/mem.out -o profiles/bench.test .
	$(GO) tool pprof -top -nodecount 15 profiles/bench.test profiles/cpu.out
	$(GO) tool pprof -top -nodecount 15 -sample_index=alloc_space profiles/bench.test profiles/mem.out
