package serve

import (
	"bufio"
	"bytes"
	"cmp"
	"context"
	"io"
	"net"
	"net/http"
	"slices"
	"strconv"
)

// hotRoute is one request line a process's connection loop reads and
// answers itself (a hot request); every other request is cold, answered by
// the process's mux, and closes the connection after its answer.
type hotRoute struct {
	// line is the request line's method and path, "POST /infer"; the loop
	// reads it over HTTP/1.1 only, and the mux refuses it otherwise.
	line string
	// client marks a route for clients outside the plane: a query string
	// may follow its path (kept in conn.query), and a header line past the
	// reader's buffer is skipped unless it is Content-Length or X-Tenant (an
	// X-Trace-Id that long is an unfit client ID). On any other route such
	// a line closes the connection.
	client bool
	// answer answers the request the loop read into hc; an error closes
	// the connection.
	answer func(hc *conn) error
}

// refuse answers a hot route's request the loop left to the mux: 505 over
// HTTP/1.0, else 400 (an absolute URI, a query string on a route without
// one, a request line past the reader's buffer).
func refuse(line string) http.HandlerFunc {
	return func(rw http.ResponseWriter, req *http.Request) {
		if !req.ProtoAtLeast(1, 1) {
			http.Error(rw, "HTTP/1.1 required", http.StatusHTTPVersionNotSupported)
			return
		}
		http.Error(rw, "request line must read "+line+" HTTP/1.1", http.StatusBadRequest)
	}
}

// conn is one connection a process serves: its reader, and the current hot
// request's body, trace context, tenant and query string, with the
// answer's scratch. Only its serve loop touches it.
type conn struct {
	c      net.Conn
	br     *bufio.Reader
	body   []byte
	trace  string
	tenant string
	query  string
	out    []byte // the answer's body
	wire   []byte // the answer: status line, header and body
}

// serve reads and answers the connection's requests until a read, a write
// or a request's framing fails, then closes the connection. Hot requests
// are read by next and answered by their route, and the connection stays
// open; a cold one is answered by cold, and the connection closes after it.
func (hc *conn) serve(ctx context.Context, mux http.Handler, hot []hotRoute) {
	defer hc.c.Close()
	for {
		line, err := hc.br.ReadSlice('\n')
		if err != nil && err != bufio.ErrBufferFull {
			return
		}
		r := hc.route(hot, line)
		if r == nil {
			hc.cold(ctx, mux, line)
			return
		}
		n, ok := hc.next(r)
		if !ok {
			return
		}
		if n > maxRequestBody {
			_ = hc.answer(http.StatusBadRequest, "", append(hc.out[:0], "http: request body too large"...))
			return
		}
		if r.answer(hc) != nil {
			return
		}
	}
}

// route returns the hot route whose request line line is, or nil (for a
// line past the reader's buffer too), and keeps its query string in
// hc.query.
func (hc *conn) route(hot []hotRoute, line []byte) *hotRoute {
	line, whole := bytes.CutSuffix(line, []byte("\n"))
	rest, ok := bytes.CutSuffix(bytes.TrimSuffix(line, []byte("\r")), []byte(" HTTP/1.1"))
	for i := range hot {
		if r := &hot[i]; whole && ok && len(rest) >= len(r.line) && string(rest[:len(r.line)]) == r.line {
			q := rest[len(r.line):]
			if len(q) == 0 || r.client && q[0] == '?' && bytes.IndexByte(q, ' ') < 0 {
				hc.query = string(q[min(len(q), 1):])
				return r
			}
		}
	}
	return nil
}

// next reads the header (at most http.DefaultMaxHeaderBytes, lines that fit
// the reader's buffer but what r.client skips) and body of the hot request
// r, into hc.trace (X-Trace-Id), hc.tenant (X-Tenant) and hc.body: exactly
// Content-Length bytes, none without one. n is the declared length; past
// maxRequestBody next stops there, before any buffer is sized, and the loop
// answers 400 and closes. ok is false on a read error and on framing the
// loop does not serve: a header line without a colon, Transfer-Encoding,
// a Content-Length that does not parse or differs from an earlier one.
func (hc *conn) next(r *hotRoute) (n int, ok bool) {
	n = -1
	hc.trace, hc.tenant = "", ""
	for size := 0; ; {
		h, err := hc.br.ReadSlice('\n')
		if size += len(h); size > http.DefaultMaxHeaderBytes {
			return 0, false
		}
		long := err == bufio.ErrBufferFull
		if err != nil && !long {
			return 0, false
		}
		h = bytes.TrimSuffix(bytes.TrimSuffix(h, []byte("\n")), []byte("\r"))
		if len(h) == 0 {
			break
		}
		key, val, found := bytes.Cut(h, []byte(":"))
		if !found {
			return 0, false
		}
		if long {
			if !r.client || bytes.EqualFold(key, []byte("Content-Length")) || bytes.EqualFold(key, []byte("X-Tenant")) {
				return 0, false
			}
			for err == bufio.ErrBufferFull {
				h, err = hc.br.ReadSlice('\n')
				if size += len(h); size > http.DefaultMaxHeaderBytes {
					return 0, false
				}
			}
			if err != nil {
				return 0, false
			}
			continue
		}
		val = bytes.TrimSpace(val)
		switch {
		case bytes.EqualFold(key, []byte("Content-Length")):
			v, err := strconv.Atoi(string(val))
			if err != nil || v < 0 || n >= 0 && v != n {
				return 0, false
			}
			if n = v; n > maxRequestBody {
				return n, true
			}
		case bytes.EqualFold(key, []byte("Transfer-Encoding")):
			return 0, false
		case bytes.EqualFold(key, []byte("X-Trace-Id")):
			hc.trace = string(val)
		case bytes.EqualFold(key, []byte("X-Tenant")):
			hc.tenant = string(val)
		}
	}
	n = max(n, 0)
	hc.body = slices.Grow(hc.body[:0], n)[:n]
	_, err := io.ReadFull(hc.br, hc.body)
	return n, err == nil
}

// answer writes one answer framed by Content-Length: the status line, hdr
// (whole header lines, each ending in CRLF) and body, in one write.
func (hc *conn) answer(status int, hdr string, body []byte) error {
	wire := strconv.AppendInt(append(hc.wire[:0], "HTTP/1.1 "...), int64(status), 10)
	wire = append(append(append(append(wire, ' '), http.StatusText(status)...), "\r\n"...), hdr...)
	wire = strconv.AppendInt(append(wire, "Content-Length: "...), int64(len(body)), 10)
	hc.wire = append(append(wire, "\r\n\r\n"...), body...)
	_, err := hc.c.Write(hc.wire)
	return err
}

// fail answers msg with status as http.Error words it, after header hdr.
func (hc *conn) fail(status int, hdr, msg string) error {
	hc.out = append(append(hc.out[:0], msg...), '\n')
	return hc.answer(status, "Content-Type: text/plain; charset=utf-8\r\nX-Content-Type-Options: nosniff\r\n"+hdr, hc.out)
}

// cold answers the request whose line the loop read, line, through mux
// under ctx, which Stop cancels: net/http's parser reads it within
// http.DefaultMaxHeaderBytes (a request it refuses closes unanswered), and
// the answer is framed by Content-Length and Connection: close.
func (hc *conn) cold(ctx context.Context, mux http.Handler, line []byte) {
	rest := io.LimitReader(hc.br, http.DefaultMaxHeaderBytes-int64(len(line)))
	req, err := http.ReadRequest(bufio.NewReader(io.MultiReader(bytes.NewReader(slices.Clone(line)), rest)))
	if err != nil {
		return
	}
	a := &coldAnswer{header: http.Header{}}
	mux.ServeHTTP(a, req.WithContext(ctx))
	resp := &http.Response{
		StatusCode: cmp.Or(a.status, http.StatusOK), ProtoMajor: 1, ProtoMinor: 1,
		Header: a.header, Body: io.NopCloser(&a.body), ContentLength: int64(a.body.Len()),
		Close: true,
	}
	_ = resp.Write(hc.c)
}

// coldAnswer is the ResponseWriter a cold request's handler writes to: it
// keeps the header, the first status and the body until the handler returns.
type coldAnswer struct {
	header http.Header
	status int
	body   bytes.Buffer
}

func (a *coldAnswer) Header() http.Header { return a.header }

func (a *coldAnswer) WriteHeader(status int) { a.status = cmp.Or(a.status, status) }

func (a *coldAnswer) Write(b []byte) (int, error) {
	a.WriteHeader(http.StatusOK)
	return a.body.Write(b)
}
