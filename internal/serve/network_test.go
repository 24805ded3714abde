package serve

import (
	"bytes"
	"net"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"ramsis/internal/profile"
)

// TestPlaneListensOncePerServer counts the listeners each deployment binds:
// one per worker and one for the frontend or the gateway. A plane's shards
// are reached in process through the gateway and bind none.
func TestPlaneListensOncePerServer(t *testing.T) {
	nw := &pipeNet{}
	cfg := burstCluster()
	cfg.net = nw
	c, err := StartCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Stop()
	if got, want := nw.listens.Load(), int32(1+cfg.Workers); got != want {
		t.Errorf("StartCluster bound %d listeners, want %d", got, want)
	}

	nw = &pipeNet{}
	pcfg := burstPlane()
	pcfg.net = nw
	sc, err := StartShardedCluster(pcfg)
	if err != nil {
		t.Fatal(err)
	}
	sc.Stop()
	if got, want := nw.listens.Load(), int32(1+pcfg.Shards*pcfg.WorkersPerShard); got != want {
		t.Errorf("StartShardedCluster bound %d listeners, want %d", got, want)
	}
}

// TestHungProbeMarksWorkerUnhealthy points a frontend at a worker address
// whose connections are accepted and never answered. Each probe must fail
// at its deadline, so the worker is marked unhealthy by its second probe,
// and Stop must still return.
func TestHungProbeMarksWorkerUnhealthy(t *testing.T) {
	ln, err := pipes.listen("")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var held []net.Conn
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			held = append(held, c)
			mu.Unlock()
		}
	}()
	probes := func() int {
		mu.Lock()
		defer mu.Unlock()
		return len(held)
	}
	defer func() {
		ln.Close()
		mu.Lock()
		for _, c := range held {
			c.Close()
		}
		mu.Unlock()
	}()

	f := &Frontend{
		Profiles: profile.ImageSet(), SLO: 0.150, TimeScale: 1,
		Workers:        []string{"http://" + ln.Addr().String()},
		Select:         fixedSelector("shufflenet_v2_x0_5"),
		process:        process{net: pipes},
		healthInterval: 20 * time.Millisecond,
	}
	if err := f.Start(); err != nil {
		t.Fatal(err)
	}
	if !waitUntil(t, 5*time.Second, func() bool { return !f.health.IsHealthy(0) }) {
		t.Errorf("a worker that never answers its probes is still healthy after %d probes", probes())
	} else if n := probes(); n < 2 || n > 3 {
		// The second failed probe flips the mark; a third may have been
		// dialed by the time the poll sees it, but no more.
		t.Errorf("marked unhealthy after %d probes, want 2 (or a third just dialed)", n)
	}
	stopped := make(chan struct{})
	go func() {
		_ = f.Stop()
		close(stopped)
	}()
	select {
	case <-stopped:
	case <-time.After(5 * time.Second):
		t.Fatal("Stop did not return with a probe hung on its worker")
	}
}

// resetConn is the dialing end of a connection whose /infer exchanges are
// reset mid-response while resets remain: before the status line, or one
// byte into the body.
type resetConn struct {
	net.Conn
	resets *atomic.Int32
	inBody bool

	armed bool
	read  []byte // the armed response's bytes so far
}

func (c *resetConn) Write(b []byte) (int, error) {
	if bytes.HasPrefix(b, []byte("POST /infer ")) && c.resets.Add(-1) >= 0 {
		c.armed, c.read = true, c.read[:0]
	}
	return c.Conn.Write(b)
}

func (c *resetConn) Read(b []byte) (int, error) {
	if !c.armed {
		return c.Conn.Read(b)
	}
	reset := &net.OpError{Op: "read", Net: "pipe", Err: syscall.ECONNRESET}
	if !c.inBody {
		c.Conn.Close()
		return 0, reset
	}
	n, err := c.Conn.Read(b)
	c.read = append(c.read, b[:n]...)
	if i := bytes.Index(c.read, []byte("\r\n\r\n")); i >= 0 {
		// Deliver the header block and one body byte, then cut.
		cut := i + 4 + 1
		c.Conn.Close()
		if keep := n - (len(c.read) - cut); keep > 0 {
			return keep, nil
		}
		return 0, reset
	}
	return n, err
}

// TestInferResetsAnswerEveryQueryOnce resets /infer connections mid-response
// — before the status line, and inside the body — while a burst is in
// flight: every query is answered exactly once, and nothing is left
// outstanding after the drain.
func TestInferResetsAnswerEveryQueryOnce(t *testing.T) {
	for _, tc := range []struct {
		name   string
		inBody bool
	}{{"before status line", false}, {"inside body", true}} {
		t.Run(tc.name, func(t *testing.T) {
			var resets atomic.Int32
			resets.Store(6)
			cfg := burstCluster()
			cfg.net = &pipeNet{wrap: func(c net.Conn) net.Conn {
				return &resetConn{Conn: c, resets: &resets, inBody: tc.inBody}
			}}
			c := startCluster(t, cfg)
			const burst = 64
			pending := make([]<-chan QueryResponse, 0, burst)
			for i := 0; i < burst; i++ {
				ch, eerr := c.Frontend.Enqueue("")
				if eerr != nil {
					t.Fatalf("query %d: %v", i, eerr)
				}
				pending = append(pending, ch)
				if i%8 == 7 {
					time.Sleep(time.Millisecond) // several batches, several exchanges
				}
			}
			ids := make(map[int]bool, burst)
			failed := 0
			for i, ch := range pending {
				select {
				case r := <-ch:
					if ids[r.ID] {
						t.Errorf("query %d: ID %d answered twice", i, r.ID)
					}
					ids[r.ID] = true
					if r.Error != "" {
						failed++
					}
				case <-time.After(10 * time.Second):
					t.Fatalf("query %d never answered", i)
				}
			}
			if !waitUntil(t, 5*time.Second, func() bool { return c.Frontend.Outstanding() == 0 }) {
				t.Errorf("%d queries outstanding after the drain", c.Frontend.Outstanding())
			}
			for i, ch := range pending {
				if len(ch) != 0 {
					t.Errorf("query %d answered a second time", i)
				}
			}
			if left := resets.Load(); left > 0 {
				t.Errorf("%d of 6 resets never fired: the burst made too few exchanges", left)
			}
			if st := c.Frontend.Stats(); st.Served != burst || st.FailedDispatches != failed {
				t.Errorf("stats served %d, failed %d; responses %d, failed %d", st.Served, st.FailedDispatches, burst, failed)
			}
		})
	}
}
