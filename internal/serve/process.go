package serve

import (
	"errors"
	"net"
	"net/http"
	"sync"

	"ramsis/internal/telemetry"
)

// process is the lifecycle every serving-plane process shares: worker, LLM
// worker, frontend and gateway each embed one. Start binds the listener
// before it starts any goroutine and registers a teardown for everything it
// starts; Stop runs those teardowns last first, each exactly once, so a
// second Stop, or a Stop after a Start that failed part way, panics on
// nothing and leaves nothing running.
type process struct {
	// Telemetry is the registry behind the process's /metrics; Start builds
	// one when nil.
	Telemetry *telemetry.Registry
	// Traces rings the process's trace fragments behind /debug/traces;
	// Start builds one when nil.
	Traces *telemetry.TraceBuffer
	// TraceWriter, when set, additionally streams every fragment as one
	// JSONL line. A sharded cluster shares one writer plane-wide, so a
	// single file stitches every trace end to end.
	TraceWriter *telemetry.TraceWriter

	addr      string
	mu        sync.Mutex
	teardowns []func() error
}

// defaults builds the unset Telemetry and Traces.
func (p *process) defaults() {
	if p.Telemetry == nil {
		p.Telemetry = telemetry.NewRegistry()
	}
	if p.Traces == nil {
		p.Traces = telemetry.NewTraceBuffer(0)
	}
}

// serve binds addr (a random localhost port when empty) and serves mux, the
// process's own routes, beside /metrics and /debug/pprof until Stop.
func (p *process) serve(addr string, mux *http.ServeMux) error {
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	p.addr = ln.Addr().String()
	mux.Handle("/metrics", p.Telemetry.Handler())
	telemetry.RegisterPprof(mux)
	srv := &http.Server{Handler: mux}
	p.onStop(srv.Close)
	go func() { _ = srv.Serve(ln) }()
	return nil
}

// onStop registers a teardown for Stop to run.
func (p *process) onStop(f func() error) {
	p.mu.Lock()
	p.teardowns = append(p.teardowns, f)
	p.mu.Unlock()
}

// URL returns the process's base URL.
func (p *process) URL() string { return "http://" + p.addr }

// Stop runs every teardown Start registered, last first, and returns their
// errors (the server's Close error); a repeated Stop, or one without a Start,
// does nothing.
func (p *process) Stop() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	var errs []error
	for i := len(p.teardowns) - 1; i >= 0; i-- {
		errs = append(errs, p.teardowns[i]())
	}
	p.teardowns = nil
	return errors.Join(errs...)
}
