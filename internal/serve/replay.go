package serve

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"ramsis/internal/sim"
	"ramsis/internal/stats"
)

// Replay paces a trace into the started frontend and blocks until every
// query is answered: arrivals are modeled seconds from the call, each
// enqueued at its scheduled instant (compressed by TimeScale) exactly as a
// live client's POST /query would be, so trace replay exercises the one
// dispatch loop — admission, balancing, selection, failover — that live
// traffic does. The responses fold into the simulator's Metrics, in modeled
// time; a query's latency runs from its actual enqueue instant.
//
// Replay returns an error alongside the metrics when the selector
// misbehaved (named a model outside Profiles, or a batch below one): the
// frontend keeps such queries alive on a fallback model, but a replay is an
// experiment, and a mis-wired policy must fail it loudly. Cancelling ctx ends
// the replay at the next pacing sleep: the queries already enqueued are
// abandoned (their channels are buffered; the frontend's Stop drains them)
// and the error wraps ctx.Err().
func (f *Frontend) Replay(ctx context.Context, arrivals []float64) (sim.Metrics, error) {
	m := sim.Metrics{ModelCounts: map[string]int{}}
	if f.core == nil {
		return m, fmt.Errorf("serve: replay needs a started frontend")
	}
	tel := f.core.Series()
	decisions, degraded, fallbacks := tel.Decisions.Value(), tel.Degraded.Value(), tel.Fallbacks.Value()
	pending := make([]<-chan QueryResponse, 0, len(arrivals))
	start := time.Now()
	for i, a := range arrivals {
		if err := SleepUntil(ctx, start.Add(time.Duration(a/f.TimeScale*float64(time.Second)))); err != nil {
			return m, fmt.Errorf("serve: replay interrupted after %d of %d arrivals: %w", i, len(arrivals), err)
		}
		done, eerr := f.Enqueue("")
		switch {
		case eerr == nil:
			pending = append(pending, done)
		case eerr.Status == http.StatusTooManyRequests:
			m.Shed++
		default:
			return m, eerr
		}
	}
	for _, done := range pending {
		r := <-done
		m.ModelCounts[r.Model]++
		m.Latencies = append(m.Latencies, r.LatencyMS/1000)
		p, _ := f.Profiles.ByName(r.Model)
		m.Serve(!r.DeadlineMet, p.Accuracy)
		if r.Error != "" {
			m.FailedDispatches++
		}
	}
	m.Decisions = int(tel.Decisions.Value() - decisions)
	m.DegradedDecisions = int(tel.Degraded.Value() - degraded)
	m.SelectFallbacks = int(tel.Fallbacks.Value() - fallbacks)
	m.LatencyP50 = stats.Percentile(m.Latencies, 50)
	m.LatencyP95 = stats.Percentile(m.Latencies, 95)
	m.LatencyP99 = stats.Percentile(m.Latencies, 99)
	if m.SelectFallbacks > 0 {
		return m, fmt.Errorf("serve: selector chose an unknown model or empty batch on %d decisions; they ran on fallback model %s",
			m.SelectFallbacks, f.Profiles.Profiles[0].Name)
	}
	return m, nil
}

// SleepUntil is a replay's pacing sleep: it blocks until the wall instant t
// (returning at once when t has passed) or until ctx is done, and returns
// ctx.Err() — so an interrupt ends the replay instead of waiting it out.
func SleepUntil(ctx context.Context, t time.Time) error {
	d := time.Until(t)
	if d <= 0 {
		return ctx.Err()
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-timer.C:
		return nil
	}
}
