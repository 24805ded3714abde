package serve

import (
	"strconv"

	"ramsis/internal/lb"
	"ramsis/internal/telemetry"
)

// registerHealthGauges exposes the tracker's live per-worker marks as
// ramsis_worker_healthy gauges; reading the tracker at exposition time
// keeps /metrics and /stats backed by the same source. offset shifts the
// worker labels (shard-local worker w is exposed as worker offset+w), so shards sharing a registry never
// collide on a gauge (a second GaugeFunc on the same label set would be
// silently dropped, leaving shard 1's workers reporting shard 0's health).
func registerHealthGauges(reg *telemetry.Registry, h *lb.HealthTracker, workers, offset int) {
	reg.Help(telemetry.MetricWorkerHealthy, "Per-worker health mark (1 healthy, 0 unhealthy).")
	for w := 0; w < workers; w++ {
		w := w
		reg.GaugeFunc(telemetry.MetricWorkerHealthy, func() float64 {
			if h.IsHealthy(w) {
				return 1
			}
			return 0
		}, "worker", strconv.Itoa(offset+w))
	}
}
