package serve

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"syscall"
)

// pipeNet is an in-memory network: listen binds an accept channel under
// addr (a fresh address when empty), and dial hands one end of a net.Pipe to
// the listener at that address. A dial to an address with no open listener
// is refused at once, as a closed TCP port refuses it, so failover keeps its
// timing. Addresses are unique across every pipeNet of the test binary, so
// pipeClient reaches a server on any of them.
type pipeNet struct {
	// listens counts the listeners bound on this network.
	listens atomic.Int32
	// wrap, when set, wraps the dialing end of every connection; a fault
	// test injects its faults there.
	wrap func(net.Conn) net.Conn
}

// pipes is the network the serve tests run on.
var pipes = &pipeNet{}

// pipeListeners are the open listeners of every pipeNet, by address.
var pipeListeners = struct {
	sync.Mutex
	byAddr map[string]*pipeListener
	last   int
}{byAddr: map[string]*pipeListener{}}

func (n *pipeNet) listen(addr string) (net.Listener, error) {
	pipeListeners.Lock()
	defer pipeListeners.Unlock()
	if addr == "" {
		pipeListeners.last++
		addr = fmt.Sprintf("pipe-%d:80", pipeListeners.last)
	}
	if pipeListeners.byAddr[addr] != nil {
		return nil, &net.OpError{Op: "listen", Net: "pipe", Addr: pipeAddr(addr), Err: syscall.EADDRINUSE}
	}
	l := &pipeListener{addr: pipeAddr(addr), conns: make(chan net.Conn), done: make(chan struct{})}
	pipeListeners.byAddr[addr] = l
	n.listens.Add(1)
	return l, nil
}

func (n *pipeNet) dial(addr string) (net.Conn, error) {
	pipeListeners.Lock()
	l := pipeListeners.byAddr[addr]
	pipeListeners.Unlock()
	refused := &net.OpError{Op: "dial", Net: "pipe", Addr: pipeAddr(addr), Err: syscall.ECONNREFUSED}
	if l == nil {
		return nil, refused
	}
	c, s := net.Pipe()
	select {
	case l.conns <- s:
	case <-l.done:
		c.Close()
		s.Close()
		return nil, refused
	}
	if n.wrap != nil {
		c = n.wrap(c)
	}
	return c, nil
}

// transport is an HTTP transport that dials over the network.
func (n *pipeNet) transport() *http.Transport {
	return &http.Transport{DialContext: func(_ context.Context, _, addr string) (net.Conn, error) {
		return n.dial(addr)
	}}
}

// pipeClient is the tests' HTTP client: http.DefaultClient over pipes.
var pipeClient = &http.Client{Transport: pipes.transport()}

// pipeListener is one bound address: Accept takes the server ends that
// dials hand over until Close.
type pipeListener struct {
	addr  pipeAddr
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	l.once.Do(func() {
		pipeListeners.Lock()
		delete(pipeListeners.byAddr, string(l.addr))
		pipeListeners.Unlock()
		close(l.done)
	})
	return nil
}

func (l *pipeListener) Addr() net.Addr { return l.addr }

// pipeAddr is a pipe network address, "pipe-<n>:80".
type pipeAddr string

func (pipeAddr) Network() string  { return "pipe" }
func (a pipeAddr) String() string { return string(a) }
