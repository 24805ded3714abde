package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"sync"
	"testing"
	"time"

	"ramsis/internal/profile"
	"ramsis/internal/telemetry"
	"ramsis/internal/tenant"
)

// TestShardedTracingEndToEnd drives one query through the full sharded
// plane and asserts the tentpole contract: a single trace ID stitches into
// a gateway → shard → worker span tree, carrying a select decision whose
// predicted and realized latencies are both populated.
func TestShardedTracingEndToEnd(t *testing.T) {
	var jsonl bytes.Buffer
	c := startSharded(t, ShardedConfig{
		Models:          profile.AblationImageSet(),
		Tenants:         testTenants(),
		Shards:          2,
		WorkersPerShard: 2,
		TimeScale:       50,
		Seed:            1,
		D:               50,
		Fair:            tenant.FairConfig{BurstSec: 0.5},
		TraceWriter:     telemetry.NewTraceWriter(&jsonl),
	})

	// A client-supplied trace ID must survive the whole plane.
	const traceID = "e2e-trace-0001"
	req, _ := http.NewRequest(http.MethodPost, c.URL()+"/query", bytes.NewReader([]byte(`{}`)))
	req.Header.Set("X-Tenant", "gold")
	req.Header.Set("X-Trace-Id", traceID)
	resp, err := pipeClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var qr QueryResponse
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if qr.Error != "" || qr.Model == "" {
		t.Fatalf("query not served: %+v", qr)
	}

	// The gateway's /debug/traces merges its own, every shard's, and every
	// worker's rings.
	mresp, err := pipeClient.Get(c.URL() + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	var merged []telemetry.QueryTrace
	if err := json.NewDecoder(mresp.Body).Decode(&merged); err != nil {
		t.Fatal(err)
	}
	mresp.Body.Close()

	var s telemetry.StitchedTrace
	for _, st := range telemetry.Stitch(merged) {
		if st.TraceID == traceID {
			s = st
		}
	}
	if s.TraceID == "" {
		t.Fatalf("trace %s absent from merged /debug/traces (%d fragments total)", traceID, len(merged))
	}

	path := s.Path()
	if len(path) != 3 {
		t.Fatalf("stitched path has %d hops, want gateway→shard→worker: %+v", len(path), path)
	}
	if path[0].Process != "gateway" {
		t.Errorf("root process %q, want gateway", path[0].Process)
	}
	if path[1].Process != "shard-0" && path[1].Process != "shard-1" {
		t.Errorf("mid process %q, want shard-N", path[1].Process)
	}
	if w := path[2].Process; len(w) < 7 || w[:7] != "worker-" {
		t.Errorf("leaf process %q, want worker-N", w)
	}
	if s.Tenant() != "gold" {
		t.Errorf("stitched tenant %q, want gold", s.Tenant())
	}

	dec := s.Decision()
	if dec == nil {
		t.Fatal("no decision attached to any fragment")
	}
	if dec.Kind != telemetry.DecisionSelect || dec.Model == "" {
		t.Errorf("decision = %+v, want a select with a model", dec)
	}
	if dec.PredictedSec <= 0 || dec.RealizedSec <= 0 {
		t.Errorf("decision latencies predicted=%v realized=%v, want both populated",
			dec.PredictedSec, dec.RealizedSec)
	}

	// The critical path must carry the full stage breakdown, inference
	// measured by the worker itself.
	stages := map[string]bool{}
	for _, sp := range s.CriticalPath() {
		stages[sp.Stage] = true
	}
	for _, want := range []string{telemetry.StageRoute, telemetry.StageBatchWait, telemetry.StageDispatch, telemetry.StageInference} {
		if !stages[want] {
			t.Errorf("critical path lacks stage %q: %v", want, stages)
		}
	}

	// The shared JSONL stream must stitch to the same tree.
	fromFile, err := telemetry.ReadTraces(&jsonl)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, st := range telemetry.Stitch(fromFile) {
		if st.TraceID == traceID && len(st.Fragments) >= 3 {
			found = true
		}
	}
	if !found {
		t.Error("-trace-out JSONL stream does not stitch the query's three fragments")
	}

	// /debug/decisions on the gateway serves the plane-wide merged ring:
	// the query's admit and select decisions both reference its trace ID.
	dresp, err := pipeClient.Get(c.URL() + "/debug/decisions")
	if err != nil {
		t.Fatal(err)
	}
	var decs []telemetry.Decision
	if err := json.NewDecoder(dresp.Body).Decode(&decs); err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	kinds := map[string]bool{}
	for _, d := range decs {
		if d.TraceID == traceID {
			kinds[d.Kind] = true
		}
	}
	if !kinds[telemetry.DecisionAdmit] || !kinds[telemetry.DecisionSelect] {
		t.Errorf("decision kinds for trace = %v, want admit and select", kinds)
	}
}

// TestShardedSLOGaugesExposed verifies the serve plane exposes per-tenant
// ramsis_slo_* series on the shared registry and that a served query moves
// them: attainment stays a valid fraction and an all-met run burns zero.
func TestShardedSLOGaugesExposed(t *testing.T) {
	c := startSharded(t, ShardedConfig{
		Models:          profile.AblationImageSet(),
		Tenants:         testTenants(),
		Shards:          1,
		WorkersPerShard: 1,
		TimeScale:       50,
		Seed:            1,
		D:               50,
		Fair:            tenant.FairConfig{BurstSec: 0.5},
	})
	done, eerr := c.Gateway.Route("gold")
	if eerr != nil {
		t.Fatal(eerr)
	}
	select {
	case r := <-done:
		if r.Error != "" || r.Model == "" {
			t.Fatalf("query not served: %+v", r)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("query timed out")
	}
	tr := c.Plane.SLOTracker("gold")
	if tr == nil {
		t.Fatal("plane has no SLO tracker for gold")
	}
	now := tr.LastNow()
	if att := tr.Attainment(now, 60); att != 1 {
		t.Errorf("attainment after one in-SLO query = %v, want 1", att)
	}
	if burn := tr.BurnRate(now, 60); burn != 0 {
		t.Errorf("burn rate = %v, want 0", burn)
	}
	resp, err := pipeClient.Get(c.URL() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var body bytes.Buffer
	if _, err := body.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	for _, want := range []string{
		`ramsis_slo_attainment{tenant="gold",window="60"}`,
		`ramsis_slo_burn_rate{tenant="gold",window="3600"}`,
		`ramsis_slo_attainment{tenant="bronze",window="300"}`,
	} {
		if !bytes.Contains(body.Bytes(), []byte(want)) {
			t.Errorf("/metrics lacks %s", want)
		}
	}
}

// TestTraceRingsUnderConcurrentDispatch wraps the plane's trace and
// decision rings while queries are in flight and snapshots them
// mid-dispatch — run under -race via make verify's serve pass. Small rings
// force wrap-around; the assertions only need internal consistency, the
// race detector does the real work.
func TestTraceRingsUnderConcurrentDispatch(t *testing.T) {
	c := startSharded(t, ShardedConfig{
		Models:          profile.AblationImageSet(),
		Tenants:         testTenants(),
		Shards:          2,
		WorkersPerShard: 1,
		TimeScale:       200,
		Seed:            1,
		D:               40,
		Fair:            tenant.FairConfig{BurstSec: 0.5},
	})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	// Snapshot readers race the dispatch-side writers.
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, src := range c.Gateway.TraceSources {
					for _, qt := range src.Snapshot() {
						_ = qt.TraceID
					}
				}
				for _, d := range c.Gateway.Decisions.Snapshot() {
					_ = d.Kind
				}
				resp, err := pipeClient.Get(c.URL() + "/debug/traces")
				if err == nil {
					resp.Body.Close()
				}
			}
		}()
	}
	var inj sync.WaitGroup
	for _, tn := range []string{"gold", "silver", "bronze"} {
		inj.Add(1)
		go func(name string) {
			defer inj.Done()
			inject(c.Gateway, name, 300, 1500*time.Millisecond)
		}(tn)
	}
	inj.Wait()
	time.Sleep(300 * time.Millisecond) // let in-flight batches land
	close(stop)
	wg.Wait()

	if c.Gateway.Traces.Len() == 0 {
		t.Error("gateway ring recorded nothing")
	}
	if c.Gateway.Decisions.Len() == 0 {
		t.Error("decision ring recorded nothing")
	}
	// Every ringed gateway fragment carries propagation context.
	for _, qt := range c.Gateway.Traces.Snapshot() {
		if qt.TraceID == "" || qt.Tenant == "" {
			t.Fatalf("gateway fragment missing trace context: %+v", qt)
		}
	}
}
