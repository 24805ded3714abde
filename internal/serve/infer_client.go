package serve

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"math"
	"net"
	"net/url"
	"strconv"
	"sync"
	"time"
)

// This file is the /infer wire layer shared by the Frontend's dispatch
// path and the worker: hand-rolled JSON encode/decode into reusable scratch
// buffers, and a minimal HTTP/1.1 client over owned persistent connections,
// one per (loop, worker), with no steady-state allocation (DESIGN.md § "The
// worker hop" (3)). The exchange always reads the full framed body,
// whatever the status, so a connection is never forfeited to an unread one.

// postScratch is per-dispatch-loop scratch for the /infer POST path: the
// encoded request body, the serialized wire bytes, the response read
// buffer, and the loop's persistent worker connections. Each dispatching
// goroutine owns one; nothing here is safe for concurrent use.
type postScratch struct {
	body []byte // encoded InferRequest, rebuilt per batch
	resp []byte // response body read buffer
	wire []byte // serialized request: header block + body
	// conns are this loop's persistent connections, indexed by worker:
	// dialed lazily on first dispatch, dropped on any error, closed by
	// closeConns when the loop exits.
	conns []*inferConn
	// net dials the connections.
	net network
	// timeout, when positive, bounds each exchange by a deadline on its
	// connection (health probes set it; dispatch does not).
	timeout time.Duration
}

// inferConn is one persistent HTTP/1.1 connection to a worker.
type inferConn struct {
	c  net.Conn
	br *bufio.Reader
}

// errDecode marks a 2xx /infer response whose body did not parse. The
// batch was delivered; only the latency attribution is lost.
var errDecode = errors.New("serve: undecodable infer response")

// errMalformed marks a response that does not parse as HTTP/1.x framing
// by Content-Length; the connection is dropped and the dispatch fails
// like any transport error.
var errMalformed = errors.New("serve: malformed infer response")

// maxInferBody bounds the Content-Length exchange accepts, checked before
// the body buffer is sized: a worker's answer is under 100 bytes, and a
// peer that declared a gigabyte would otherwise cost the dispatch loop a
// gigabyte.
const maxInferBody = 64 << 10

// postInfer POSTs one encoded batch to worker w's pre-parsed URL and
// parses the worker's latency report. status is 0 on transport errors
// (dial failure, reset, unparseable framing): the connection is dropped
// and the error feeds the caller's health/failover path — there is no
// silent retry, because a POST that died mid-exchange may already be
// executing on the worker. A 2xx body that fails to read or parse
// returns errDecode with the status, and so does one that is not
// appendInferResponse's shape; callers decide whether a
// delivered-but-unattributed batch counts as success. traceCtx, when
// non-empty, rides in the X-Trace-Id header.
func (s *postScratch) postInfer(w int, u *url.URL, body, traceCtx []byte) (float64, int, error) {
	status, err := s.roundTrip(w, u, body, traceCtx)
	if status == 0 {
		return 0, 0, err
	}
	if status < 200 || status >= 300 {
		return 0, status, nil
	}
	if err != nil {
		return 0, status, errDecode
	}
	// Only latency is read back — model and batch just echo the request,
	// and decoding them would allocate a string per batch.
	lat, ok := parseInferLatency(s.resp)
	if !ok {
		return 0, status, errDecode
	}
	return lat, status, nil
}

// roundTrip performs one request/response exchange on worker w's owned
// connection, dialing if the slot is empty. Any error drops the
// connection, so the next dispatch to w starts from a fresh dial.
func (s *postScratch) roundTrip(w int, u *url.URL, body, traceCtx []byte) (int, error) {
	for len(s.conns) <= w {
		s.conns = append(s.conns, nil)
	}
	ic := s.conns[w]
	if ic == nil {
		c, err := s.net.dial(u.Host)
		if err != nil {
			return 0, err
		}
		ic = &inferConn{c: c, br: bufio.NewReader(c)}
		s.conns[w] = ic
	}
	if s.timeout > 0 {
		_ = ic.c.SetDeadline(time.Now().Add(s.timeout))
	}
	status, keep, err := ic.exchange(s, u, body, traceCtx)
	if err != nil || !keep {
		_ = ic.c.Close()
		s.conns[w] = nil
	}
	return status, err
}

// closeConns closes every connection this scratch owns; dispatch loops
// call it on exit.
func (s *postScratch) closeConns() {
	for i, ic := range s.conns {
		if ic != nil {
			_ = ic.c.Close()
			s.conns[i] = nil
		}
	}
}

// exchange writes one POST and reads its response into s.resp. status is
// non-zero once a status line was parsed, even when a later read fails —
// roundTrip's callers use that to tell transport failures (retryable
// against another worker) from undecodable bodies (delivered). keep
// reports whether the connection survives for the next exchange. The body
// is read by Content-Length alone, the one framing a worker's answer has:
// a response without it, or with Transfer-Encoding, is errMalformed. The
// request is serialized into the wire scratch in one piece — header block
// and body — and written with a single syscall.
func (ic *inferConn) exchange(s *postScratch, u *url.URL, body, traceCtx []byte) (status int, keep bool, err error) {
	wire := s.wire[:0]
	wire = append(wire, "POST "...)
	wire = append(wire, u.Path...)
	wire = append(wire, " HTTP/1.1\r\nHost: "...)
	wire = append(wire, u.Host...)
	wire = append(wire, "\r\nContent-Length: "...)
	wire = strconv.AppendInt(wire, int64(len(body)), 10)
	if len(traceCtx) > 0 {
		wire = append(wire, "\r\nX-Trace-Id: "...)
		wire = append(wire, traceCtx...)
	}
	wire = append(wire, "\r\n\r\n"...)
	wire = append(wire, body...)
	s.wire = wire[:0] // keep the grown capacity for the next batch
	if _, err := ic.c.Write(wire); err != nil {
		return 0, false, err
	}
	line, err := readLine(ic.br)
	if err != nil {
		return 0, false, err
	}
	status, keep = parseStatusLine(line)
	if status == 0 {
		return 0, false, errMalformed
	}
	contentLen := -1
	for {
		h, err := readLine(ic.br)
		if err != nil {
			return status, false, err
		}
		if len(h) == 0 {
			break
		}
		i := bytes.IndexByte(h, ':')
		if i < 0 {
			continue
		}
		key, val := h[:i], bytes.TrimSpace(h[i+1:])
		switch {
		case bytes.EqualFold(key, []byte("Content-Length")):
			n, perr := strconv.Atoi(string(val))
			if perr != nil || n < 0 || n > maxInferBody {
				return status, false, errMalformed
			}
			contentLen = n
		case bytes.EqualFold(key, []byte("Transfer-Encoding")):
			return status, false, errMalformed
		case bytes.EqualFold(key, []byte("Connection")):
			if bytes.EqualFold(val, []byte("close")) {
				keep = false
			}
		}
	}
	if contentLen < 0 {
		return status, false, errMalformed
	}
	if cap(s.resp) < contentLen {
		s.resp = make([]byte, contentLen)
	} else {
		s.resp = s.resp[:contentLen]
	}
	if _, err := io.ReadFull(ic.br, s.resp); err != nil {
		return status, false, err
	}
	return status, keep, nil
}

// readLine reads one CRLF-terminated line no longer than br's buffer; the
// returned slice aliases the buffer and is valid only until the next read.
func readLine(br *bufio.Reader) ([]byte, error) {
	line, err := br.ReadSlice('\n')
	if err != nil {
		return nil, err
	}
	n := len(line) - 1
	if n > 0 && line[n-1] == '\r' {
		n--
	}
	return line[:n], nil
}

// parseStatusLine extracts the status code from "HTTP/1.x NNN reason".
// status 0 means unparseable, a code below 100 included; keep reports
// HTTP/1.1 (whose connections persist by default).
func parseStatusLine(line []byte) (status int, keep bool) {
	const pre = "HTTP/1."
	if len(line) < len(pre)+5 || string(line[:len(pre)]) != pre {
		return 0, false
	}
	keep = line[len(pre)] == '1'
	rest := line[len(pre)+1:]
	if rest[0] != ' ' {
		return 0, false
	}
	for _, c := range rest[1:4] {
		if c < '0' || c > '9' {
			return 0, false
		}
		status = status*10 + int(c-'0')
	}
	if status < 100 {
		return 0, false
	}
	return status, keep
}

// appendInferRequest encodes InferRequest by hand.
func appendInferRequest(b []byte, model string, batch int) []byte {
	b = append(b, `{"model":`...)
	b = strconv.AppendQuote(b, model)
	b = append(b, `,"batch":`...)
	b = strconv.AppendInt(b, int64(batch), 10)
	return append(b, '}')
}

// parseInferRequest decodes exactly the wire shape appendInferRequest
// emits ({"model":"...","batch":N}) by hand and without any
// allocation; the returned model aliases b. ok is false for anything else
// — escaped model names, reordered or extra fields, surrounding space —
// and the worker falls back to the generic decoder, so external clients
// may still speak arbitrary JSON.
func parseInferRequest(b []byte) (model []byte, batch int, ok bool) {
	const pre = `{"model":"`
	if len(b) < len(pre) || string(b[:len(pre)]) != pre {
		return nil, 0, false
	}
	b = b[len(pre):]
	end := bytes.IndexByte(b, '"')
	if end < 0 || bytes.IndexByte(b[:end], '\\') >= 0 {
		return nil, 0, false
	}
	model = b[:end]
	b = b[end+1:]
	const mid = `,"batch":`
	if len(b) < len(mid)+2 || string(b[:len(mid)]) != mid || b[len(b)-1] != '}' {
		return nil, 0, false
	}
	for _, c := range b[len(mid) : len(b)-1] {
		if c < '0' || c > '9' {
			return nil, 0, false
		}
		batch = batch*10 + int(c-'0')
		if batch > 1<<20 {
			return nil, 0, false
		}
	}
	return model, batch, true
}

// appendInferResponse encodes InferResponse by hand.
func appendInferResponse(b []byte, model string, batch int, latency float64) []byte {
	b = append(b, `{"model":`...)
	b = strconv.AppendQuote(b, model)
	b = append(b, `,"batch":`...)
	b = strconv.AppendInt(b, int64(batch), 10)
	b = append(b, `,"latency":`...)
	b = strconv.AppendFloat(b, latency, 'g', -1, 64)
	return append(b, '}')
}

// parseInferLatency decodes the latency field of the exact wire shape
// appendInferResponse emits: the number between the last `,"latency":`
// and the closing brace, parsed by strconv.ParseFloat as the generic
// decoder parses it, so the value is the correctly rounded one. The
// conversion does not allocate for a number of up to 32 bytes, which
// every shortest-form float64 is. Anything else, a non-finite value
// included, reports ok=false.
func parseInferLatency(b []byte) (lat float64, ok bool) {
	const key = `,"latency":`
	i := bytes.LastIndex(b, []byte(key))
	if i < 0 || b[len(b)-1] != '}' {
		return 0, false
	}
	lat, err := strconv.ParseFloat(string(b[i+len(key):len(b)-1]), 64)
	if err != nil || math.IsInf(lat, 0) || math.IsNaN(lat) {
		return 0, false
	}
	return lat, true
}

// donePool recycles the one-shot response channels of the blocking query
// paths (Do, the HTTP handlers). A channel may be recycled only after its
// single response was received — recycling an abandoned channel would let
// the late dispatch send poison the next query that draws it.
var donePool = sync.Pool{New: func() any { return make(chan QueryResponse, 1) }}
