package serve

import (
	"bufio"
	"context"
	"errors"
	"net"
	"net/http"
	"sync"
	"time"

	"ramsis/internal/telemetry"
)

// network is the plane's one way onto the wire: listen binds a process's
// address (a fresh one when addr is empty) and returns its listener, and
// dial opens a connection to another process's address. Every server
// listens and the dispatcher dials through it; tcp is the default, and
// tests substitute an in-memory one.
type network interface {
	listen(addr string) (net.Listener, error)
	dial(addr string) (net.Conn, error)
}

// tcp is the default network: an empty address is a random localhost port.
type tcp struct{}

func (tcp) listen(addr string) (net.Listener, error) {
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	return net.Listen("tcp", addr)
}

func (tcp) dial(addr string) (net.Conn, error) { return net.Dial("tcp", addr) }

// clock is the plane's one source of modeled time, in modeled seconds: now
// is the time since the clock's epoch, and sleep holds the caller for d.
// Every serving process reads and sleeps through it; wallClock is the
// default, and tests substitute a fake that moves only when a process
// sleeps.
type clock interface {
	now() float64
	sleep(d float64)
}

// wallClock is the default clock: modeled time is wall time since epoch
// times scale, so a sleep of d modeled seconds holds d/scale wall seconds.
type wallClock struct {
	epoch time.Time
	scale float64
}

// newWallClock starts a wall clock at *timeScale modeled seconds per wall
// second. It is where a TimeScale ≤ 0 becomes 1, written back so the
// caller's TimeScale reads the scale its clock runs at.
func newWallClock(timeScale *float64) *wallClock {
	if *timeScale <= 0 {
		*timeScale = 1
	}
	return &wallClock{epoch: time.Now(), scale: *timeScale}
}

func (c *wallClock) now() float64 { return time.Since(c.epoch).Seconds() * c.scale }

func (c *wallClock) sleep(d float64) {
	time.Sleep(time.Duration(d / c.scale * float64(time.Second)))
}

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

	// net is the network the process listens and dials on; defaults sets
	// tcp when nil.
	net network
	// clock is the process's modeled time; defaults starts a wall clock
	// when nil. A sharded cluster hands one clock to every shard, its
	// gateway and its tenant plane, so all of them read the same instant.
	clock
	addr      string
	mu        sync.Mutex
	teardowns []func() error
	// mux and hot are what the process serves: its cold routes and the
	// request lines its connection loop reads itself.
	mux *http.ServeMux
	hot []hotRoute
	// conns are the connections the process holds open; accept ends them
	// once Stop closes the listener.
	connMu sync.Mutex
	conns  map[net.Conn]struct{}
}

// defaults builds the unset Telemetry and Traces, picks tcp when no network
// was set, and starts a wall clock at *timeScale when no clock was. The
// gateway, whose clock is always its plane's, passes nil.
func (p *process) defaults(timeScale *float64) {
	if p.net == nil {
		p.net = tcp{}
	}
	if p.clock == nil {
		p.clock = newWallClock(timeScale)
	}
	if p.Telemetry == nil {
		p.Telemetry = telemetry.NewRegistry()
	}
	if p.Traces == nil {
		p.Traces = telemetry.NewTraceBuffer(0)
	}
}

// listen adds /metrics, /debug/pprof and a refusal of each hot line the
// loop does not read (refuse) to mux, binds addr on the process's network
// (a fresh address when empty), and serves each connection it accepts with
// conn.serve until Stop.
func (p *process) listen(addr string, mux *http.ServeMux, hot []hotRoute) error {
	mux.Handle("/metrics", p.Telemetry.Handler())
	telemetry.RegisterPprof(mux)
	for _, r := range hot {
		mux.HandleFunc(r.line, refuse(r.line))
	}
	ln, err := p.net.listen(addr)
	if err != nil {
		return err
	}
	p.addr, p.mux, p.hot = ln.Addr().String(), mux, hot
	// Cold requests run under ctx, so Stop ends a long one (a CPU profile).
	ctx, cancel := context.WithCancel(context.Background())
	p.conns = make(map[net.Conn]struct{})
	done := make(chan struct{})
	go p.accept(ctx, ln, done)
	p.onStop(func() error {
		cancel()
		err := ln.Close()
		<-done
		return err
	})
	return nil
}

// stopGrace is how long Stop lets an answer in progress reach its client.
const stopGrace = time.Second

// accept serves each connection ln accepts on its own loop. Once ln
// closes, it ends every open connection's reads at once, gives an answer
// in progress stopGrace to be written (a stream Stop cut short still ends
// as its framing says), and closes done when every loop has returned.
func (p *process) accept(ctx context.Context, ln net.Listener, done chan struct{}) {
	defer close(done)
	var loops sync.WaitGroup
	for {
		c, err := ln.Accept()
		if err != nil {
			break
		}
		p.connMu.Lock()
		p.conns[c] = struct{}{}
		p.connMu.Unlock()
		loops.Add(1)
		go func() {
			defer loops.Done()
			(&conn{c: c, br: bufio.NewReader(c)}).serve(ctx, p.mux, p.hot)
			p.connMu.Lock()
			delete(p.conns, c)
			p.connMu.Unlock()
		}()
	}
	now := time.Now()
	p.connMu.Lock()
	for c := range p.conns {
		_ = c.SetReadDeadline(now) // fails only on a closed connection, whose loop is ending
		_ = c.SetWriteDeadline(now.Add(stopGrace))
	}
	p.connMu.Unlock()
	loops.Wait()
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
// errors (the listener's Close error); a repeated Stop, or one without a Start,
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
