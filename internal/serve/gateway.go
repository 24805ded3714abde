package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"

	"ramsis/internal/telemetry"
	"ramsis/internal/tenant"
)

// Gateway fronts a sharded deployment: it resolves each query's tenant,
// picks a frontend shard by the configured sharding policy, and enqueues
// the query in-process on that shard (the shards share the gateway's
// address space — sharding here partitions queues and worker pools, not
// machines). It also serves the merged observability surface: /metrics
// from the registry every shard writes into, /stats with the per-tenant
// breakdown, and /reload for tenant-config hot swaps. Stop closes the
// gateway alone; the shards are stopped by their owner.
type Gateway struct {
	// Shards are the started frontend shards, index = shard id.
	Shards []*Frontend
	// Sharder picks a shard per query (required).
	Sharder tenant.Sharder
	// Plane is the shared per-tenant control state (required).
	Plane *TenantPlane
	// Addr is the listen address (default random localhost port).
	Addr string
	// TenantFile, when set, is re-parsed on POST /reload.
	TenantFile string
	// process's Telemetry is required here: the registry the shards and
	// the plane write into. Its Traces rings the gateway-side fragments
	// (tenant resolution and shard routing), and its clock is the plane's.
	process
	// Decisions is the plane-wide policy-decision ring served at
	// /debug/decisions (required: the same ring every shard writes into).
	Decisions *telemetry.DecisionBuffer
	// TraceSources are the rings merged into the gateway's /debug/traces:
	// its own plus every shard's and worker's, so one endpoint yields a
	// stitchable view of the whole plane (required).
	TraceSources []*telemetry.TraceBuffer

	shardQueries []*telemetry.Counter
	// depthScratch recycles the per-route shard-depth snapshot the
	// sharder reads, keeping the routing hot path allocation-free.
	depthScratch sync.Pool
}

// GatewayStats is the gateway's /stats document.
type GatewayStats struct {
	Served           int                    `json:"served"`
	Violations       int                    `json:"violations"`
	Shed             int                    `json:"shed"`
	FailedDispatches int                    `json:"failedDispatches"`
	Shards           int                    `json:"shards"`
	ShardDepths      []int                  `json:"shardDepths"`
	ShardQueries     []int                  `json:"shardQueries"`
	TenantVersion    uint64                 `json:"tenantVersion"`
	Tenants          map[string]TenantStats `json:"tenants"`
}

// Start wires the shard-level telemetry and binds the gateway listener.
// The shards must already be started.
func (g *Gateway) Start() error {
	if len(g.Shards) == 0 {
		return fmt.Errorf("serve: gateway needs at least one shard")
	}
	if g.Plane == nil {
		return fmt.Errorf("serve: gateway needs a tenant plane")
	}
	if g.Telemetry == nil {
		return fmt.Errorf("serve: gateway needs the shared telemetry registry")
	}
	g.clock = g.Plane.clock
	g.defaults(nil)
	for i, fe := range g.Shards {
		fe := fe
		shard := fmt.Sprintf("%d", i)
		g.shardQueries = append(g.shardQueries,
			g.Telemetry.Counter(telemetry.MetricShardQueries, "shard", shard))
		g.Telemetry.GaugeFunc(telemetry.MetricShardDepth, func() float64 {
			return float64(fe.Outstanding())
		}, "shard", shard)
	}
	g.depthScratch.New = func() any {
		s := make([]int, 0, len(g.Shards))
		return &s
	}
	g.Telemetry.Help(telemetry.MetricShardDepth, "Outstanding queries per frontend shard.")

	mux := http.NewServeMux()
	mux.HandleFunc("/stats", g.handleStats)
	mux.HandleFunc("/reload", g.handleReload)
	mux.HandleFunc("/debug/traces", g.handleTraces)
	mux.Handle("/debug/decisions", g.Decisions.Handler())
	return g.listen(g.Addr, mux, entry(g.route).routes())
}

// Route admits and enqueues one query on the shard the sharding policy
// picks for its tenant, returning the response channel. Load injectors
// call this directly; POST /query enters through route too. The trace
// context is born here: Route generates the trace ID, records the
// gateway-side fragment, and hands the ID down so the shard's and worker's
// fragments stitch under it.
func (g *Gateway) Route(tenantName string) (<-chan QueryResponse, *EnqueueError) {
	return entry(g.route).fresh(tenantName)
}

// route resolves the tenant, picks a shard, and enqueues there; done (nil
// for fire-and-forget callers) receives the response. Like the shard-level
// enqueue it is allocation-flat at steady state: the depth snapshot comes
// from a pool and the gateway trace fragment's span lives on the stack.
func (g *Gateway) route(tenantName, traceID string, done chan QueryResponse) *EnqueueError {
	t, ok := g.Plane.Registry().Resolve(tenantName)
	if !ok {
		return &EnqueueError{Status: http.StatusBadRequest,
			Msg: fmt.Sprintf("unknown tenant %q", tenantName)}
	}
	if traceID == "" {
		traceID = telemetry.NewTraceID()
	}
	routeStart := g.now()
	dp := g.depthScratch.Get().(*[]int)
	depths := (*dp)[:0]
	for _, fe := range g.Shards {
		depths = append(depths, fe.Outstanding())
	}
	*dp = depths
	// Pick on the canonical name so "" and the default tenant hash alike.
	s := g.Sharder.Pick(t.Name, depths)
	g.depthScratch.Put(dp)
	if s < 0 || s >= len(g.Shards) {
		s = 0
	}
	eerr := g.Shards[s].enqueue(t.Name, traceID, done)
	if eerr == nil {
		g.shardQueries[s].Inc()
	}
	var sp [1]telemetry.Span
	sp[0] = telemetry.Span{Stage: telemetry.StageRoute, Seconds: g.now() - routeStart}
	qt := telemetry.QueryTrace{
		ID: -1, Arrival: routeStart, Worker: -1,
		TraceID: traceID, Process: "gateway",
		Tenant: t.Name, Shard: s,
	}
	if eerr != nil {
		qt.Error = eerr.Msg
	}
	telemetry.Record(g.Traces, g.TraceWriter, qt, sp[:])
	return eerr
}

// RouteAsync routes one query fire-and-forget: the response is counted
// and traced as usual, but no response channel is ever allocated or
// delivered to. Load injectors (cmd/soak -saturate) drive the plane
// through here at saturation rates.
func (g *Gateway) RouteAsync(tenantName string) *EnqueueError {
	return g.route(tenantName, "", nil)
}

// Do routes one query and blocks until its response arrives — the
// in-process equivalent of POST /query on the gateway.
func (g *Gateway) Do(tenantName string) (QueryResponse, *EnqueueError) {
	return entry(g.route).do(tenantName, "")
}

// Stats assembles the gateway-wide snapshot: aggregate serving counters
// (the shards share one registry, so the totals are already merged) plus
// the per-tenant breakdown.
func (g *Gateway) Stats() GatewayStats {
	tenants := g.Plane.Stats(g.now())
	depths := make([]int, len(g.Shards))
	sq := make([]int, len(g.Shards))
	for i, fe := range g.Shards {
		depths[i] = fe.Outstanding()
		sq[i] = int(g.shardQueries[i].Value())
	}
	served := int(g.Telemetry.Counter(telemetry.MetricQueries).Value())
	violations := int(g.Telemetry.Counter(telemetry.MetricViolations).Value())
	shed := 0
	for _, ts := range tenants {
		shed += ts.Shed
	}
	return GatewayStats{
		Served:           served,
		Violations:       violations,
		Shed:             shed,
		FailedDispatches: int(g.Telemetry.Counter(telemetry.MetricFailedDispatches).Value()),
		Shards:           len(g.Shards),
		ShardDepths:      depths,
		ShardQueries:     sq,
		TenantVersion:    g.Plane.Registry().Version(),
		Tenants:          tenants,
	}
}

// handleTraces merges every component ring — the gateway's own fragments,
// each shard's, each worker's — into one JSON array. Feeding the merged
// array to telemetry.Stitch (or `ramsis-trace -stitch`) reassembles each
// query's cross-process span tree.
func (g *Gateway) handleTraces(rw http.ResponseWriter, _ *http.Request) {
	merged := []telemetry.QueryTrace{}
	for _, src := range g.TraceSources {
		if src != nil {
			merged = append(merged, src.Snapshot()...)
		}
	}
	rw.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(rw).Encode(merged)
}

func (g *Gateway) handleStats(rw http.ResponseWriter, _ *http.Request) {
	rw.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(rw).Encode(g.Stats())
}

// handleReload re-reads the tenant config file and hot-swaps the registry;
// the fair admitter and plane pick up the new set on their next admit and
// state lookup. POST only.
func (g *Gateway) handleReload(rw http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodPost {
		http.Error(rw, "POST required", http.StatusMethodNotAllowed)
		return
	}
	if g.TenantFile == "" {
		http.Error(rw, "no tenant file configured", http.StatusBadRequest)
		return
	}
	if err := g.Plane.Registry().ReloadFile(g.TenantFile); err != nil {
		http.Error(rw, err.Error(), http.StatusBadRequest)
		return
	}
	rw.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(rw).Encode(map[string]uint64{"version": g.Plane.Registry().Version()})
}
