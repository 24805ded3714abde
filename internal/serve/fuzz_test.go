package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net"
	"net/http"
	"net/url"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"
	"unicode/utf8"

	"ramsis/internal/llm"
	"ramsis/internal/profile"
	"ramsis/internal/sim"
	"ramsis/internal/telemetry"
)

// The /infer wire layer hand-rolls its JSON encode/decode (infer_client.go)
// for the hot dispatch path; the worker falls back to encoding/json for
// requests the fast parser declines, and the dispatcher has no fallback.
// These fuzz targets pin the contract between the hand-rolled codecs and
// encoding/json: wherever both decoders accept the same bytes they must
// agree exactly, and everything the fast encoders emit must round-trip
// through both. The checks are conditional by design — the fast paths
// accept a deliberately narrow wire shape and are allowed to reject valid
// JSON, and parseInferLatency keys off a byte sequence without validating
// the surrounding document, so it can accept fragments encoding/json
// refuses. FuzzInferExchange fuzzes the HTTP/1.1 framer the dispatcher
// reads worker answers with, and FuzzWorkerConn, FuzzFrontendConn and
// FuzzLLMWorkerConn the loop every serving process serves each connection
// with.

// FuzzParseInferRequest cross-checks the allocation-free request decoder
// against encoding/json and pins re-encode self-consistency.
func FuzzParseInferRequest(f *testing.F) {
	f.Add([]byte(`{"model":"resnet50","batch":8}`))
	f.Add([]byte(`{"model":"","batch":0}`))
	f.Add([]byte(`{"model":"a\"b","batch":3}`))  // escaped quote: generic path
	f.Add([]byte(`{"batch":8,"model":"x"}`))     // reordered: generic path
	f.Add([]byte(`{"model":"m","batch":00042}`)) // leading zeros: fast-only shape
	f.Add([]byte(`{"model":"m","batch":1048577}`))
	f.Add([]byte(` {"model":"m","batch":1}`))
	f.Fuzz(func(t *testing.T, b []byte) {
		model, batch, ok := parseInferRequest(b)
		if !ok {
			return
		}
		// Cross-check against encoding/json where it also accepts. Raw
		// control bytes in the model name parse fast but fail the generic
		// decoder, and invalid UTF-8 is replaced rather than preserved by
		// it, so those inputs have nothing to compare.
		var req struct {
			Model string `json:"model"`
			Batch int    `json:"batch"`
		}
		if err := json.Unmarshal(b, &req); err == nil && utf8.Valid(model) {
			if string(model) != req.Model || batch != req.Batch {
				t.Fatalf("parseInferRequest = (%q, %d), encoding/json = (%q, %d)",
					model, batch, req.Model, req.Batch)
			}
		}
		// Self-consistency: re-encoding what was parsed must parse back to
		// the same values, whenever the encoder quotes the name verbatim
		// (appendInferRequest escapes control bytes, which the fast parser
		// then declines by design).
		if strconv.Quote(string(model)) == `"`+string(model)+`"` {
			re := appendInferRequest(nil, string(model), batch)
			m2, b2, ok2 := parseInferRequest(re)
			if !ok2 || string(m2) != string(model) || b2 != batch {
				t.Fatalf("re-encode of (%q, %d) parsed as (%q, %d, ok=%v)",
					model, batch, m2, b2, ok2)
			}
		}
	})
}

// FuzzParseInferLatency cross-checks the latency fast path against
// encoding/json: on bytes both accept, both parse the number with
// strconv.ParseFloat, so the values must be equal.
func FuzzParseInferLatency(f *testing.F) {
	f.Add([]byte(`{"model":"m","batch":8,"latency":0.0123}`))
	f.Add([]byte(`{"model":"m","batch":1,"latency":1.2345678901234567e-05}`))
	f.Add([]byte(`{"model":"m","batch":1,"latency":-3}`))
	f.Add([]byte(`{"model":"m","batch":1,"latency":9999999999999999999}`))
	f.Add([]byte(`{"model":"m","batch":1,"latency":1e31}`)) // exponent past 1e22
	f.Add([]byte(`{"a":{"x":1,"latency":5}}`))              // nested: trailing-brace check rejects
	f.Add([]byte(`{"latency":1,"latency":2}`))              // duplicate key: both take the last
	f.Fuzz(func(t *testing.T, b []byte) {
		fast, ok := parseInferLatency(b)
		if !ok {
			return
		}
		var resp struct {
			Latency float64 `json:"latency"`
		}
		if err := json.Unmarshal(b, &resp); err != nil {
			// The fast path scans for the last `,"latency":` sequence and
			// never validates the rest of the body, so it can accept
			// fragments that are not JSON. Production bodies are whole
			// objects from appendInferResponse; nothing to cross-check.
			return
		}
		if fast != resp.Latency {
			t.Fatalf("parseInferLatency(%q) = %g, encoding/json = %g", b, fast, resp.Latency)
		}
	})
}

// FuzzInferWireRoundTrip drives the encoders with arbitrary field values
// and checks both decoders recover them: the emitted request must parse
// identically on the fast and generic paths, and the emitted response's
// shortest-form float must round-trip exactly through encoding/json and
// through parseInferLatency, the dispatcher's only latency decoder.
func FuzzInferWireRoundTrip(f *testing.F) {
	f.Add("resnet50", 8, 0.012345)
	f.Add("", 0, 0.0)
	f.Add("chat-72b", 1<<20, 1.2345678901234567e-05)
	f.Add("mobilenet_v2", 64, math.MaxFloat64)
	f.Add("efficientnet-b7", 3, -5e-324)
	f.Fuzz(func(t *testing.T, model string, batch int, latency float64) {
		if strconv.Quote(model) != `"`+model+`"` {
			// Names needing escapes are quoted by the encoder and declined
			// by the fast parser; the generic decoder handles them.
			t.Skip("model name needs escaping")
		}
		batch &= 1<<20 - 1 // the fast parser bounds batch at 1<<20

		req := appendInferRequest(nil, model, batch)
		m, b2, ok := parseInferRequest(req)
		if !ok || string(m) != model || b2 != batch {
			t.Fatalf("fast parse of own encoding %q = (%q, %d, ok=%v)", req, m, b2, ok)
		}
		var jr struct {
			Model string `json:"model"`
			Batch int    `json:"batch"`
		}
		if err := json.Unmarshal(req, &jr); err != nil {
			t.Fatalf("appendInferRequest emitted invalid JSON %q: %v", req, err)
		}
		if jr.Model != model || jr.Batch != batch {
			t.Fatalf("encoding/json decoded %q as (%q, %d)", req, jr.Model, jr.Batch)
		}

		if math.IsNaN(latency) || math.IsInf(latency, 0) {
			return // AppendFloat would emit non-JSON tokens; workers never report these
		}
		resp := appendInferResponse(nil, model, batch, latency)
		var rr struct {
			Latency float64 `json:"latency"`
		}
		if err := json.Unmarshal(resp, &rr); err != nil {
			t.Fatalf("appendInferResponse emitted invalid JSON %q: %v", resp, err)
		}
		if rr.Latency != latency {
			t.Fatalf("latency %v did not round-trip through %q (got %v)", latency, resp, rr.Latency)
		}
		if lat, ok := parseInferLatency(resp); !ok || lat != latency {
			t.Fatalf("fast parse of own encoding %q = (%g, ok=%v), want %g", resp, lat, ok, latency)
		}
	})
}

// scriptConn is a net.Conn that discards writes and reads a scripted
// response, then io.EOF: a read past the script is an error, never a hang.
type scriptConn struct {
	net.Conn // nil: only Read, Write and Close are called
	r        *bytes.Reader
}

func (c *scriptConn) Read(p []byte) (int, error)  { return c.r.Read(p) }
func (c *scriptConn) Write(p []byte) (int, error) { return len(p), nil }
func (c *scriptConn) Close() error                { return nil }

// scriptExchange runs one exchange whose response bytes are resp.
func scriptExchange(s *postScratch, resp []byte) (int, bool, error) {
	c := &scriptConn{r: bytes.NewReader(resp)}
	ic := &inferConn{c: c, br: bufio.NewReader(c)}
	u := &url.URL{Host: "worker", Path: "/infer"}
	return ic.exchange(s, u, []byte(`{"model":"m","batch":1}`), nil)
}

// TestExchangeRejectsOversizeBody declares a 1 MiB body and sends a few
// bytes of it: the length is refused before any buffer is sized for it,
// rather than allocated and then read short.
func TestExchangeRejectsOversizeBody(t *testing.T) {
	var s postScratch
	status, keep, err := scriptExchange(&s,
		[]byte("HTTP/1.1 200 OK\r\nContent-Length: 1048576\r\n\r\n{\"latency\":1}"))
	if !errors.Is(err, errMalformed) || keep || status != 200 {
		t.Fatalf("exchange = (%d, %v, %v), want (200, false, errMalformed)", status, keep, err)
	}
	if cap(s.resp) != 0 {
		t.Errorf("body buffer grew to %d bytes for a refused length", cap(s.resp))
	}
}

// FuzzInferExchange runs the /infer response framer on arbitrary bytes.
// A response it accepts must have a three-digit status and a body that is
// exactly the declared Content-Length bytes after the header block; one it
// refuses must drop the connection.
func FuzzInferExchange(f *testing.F) {
	for _, seed := range []string{
		"HTTP/1.1 200 OK\r\nContent-Length: 40\r\n\r\n{\"model\":\"m\",\"batch\":1,\"latency\":0.0123}",
		"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n0\r\n\r\n",
		"HTTP/1.1 200 OK\r\n\r\nbody runs to close",
		"HTTP/1.1 204 No Content\r\n\r\n",
		"HTTP/1.0 200 OK\r\nContent-Length: 2\r\n\r\n{}",
		"HTTP/1.1 200 OK\r\nConnection: close\r\nContent-Length: 2\r\n\r\n{}",
		"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\n{\"lat",
		"HTTP/1.1 200 OK\r\nContent-Length: 99999999999\r\n\r\n{}",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		var s postScratch
		status, keep, err := scriptExchange(&s, in)
		if err != nil {
			if keep {
				t.Fatalf("exchange(%q) kept the connection after %v", in, err)
			}
			return
		}
		if status < 100 || status > 999 {
			t.Fatalf("exchange(%q) accepted status %d", in, status)
		}
		body, n := framedBody(in)
		if n < 0 || len(s.resp) != n || !bytes.Equal(s.resp, body) {
			t.Fatalf("exchange(%q) read body %q, want the %d declared bytes %q", in, s.resp, n, body)
		}
	})
}

// framedBody is the test's own reading of a response the framer accepted:
// header lines up to the first empty one, the last Content-Length among
// them, and that many bytes after the header block (n = -1 if there is no
// such header or fewer bytes remain).
func framedBody(in []byte) (body []byte, n int) {
	n = -1
	rest := in
	for first := true; ; first = false {
		line, after, ok := bytes.Cut(rest, []byte("\n"))
		if !ok {
			return nil, -1
		}
		rest = after
		line = bytes.TrimSuffix(line, []byte("\r"))
		if len(line) == 0 && !first {
			break
		}
		if k, v, ok := bytes.Cut(line, []byte(":")); ok && !first &&
			bytes.EqualFold(k, []byte("Content-Length")) {
			if x, err := strconv.Atoi(string(bytes.TrimSpace(v))); err == nil {
				n = x
			}
		}
	}
	if n < 0 || n > len(rest) {
		return nil, -1
	}
	return rest[:n], n
}

// keptConn is a scriptConn that keeps what is written to it.
type keptConn struct {
	scriptConn
	out bytes.Buffer
}

func (c *keptConn) Write(p []byte) (int, error) { return c.out.Write(p) }

// fuzzConn runs a process's connection loop on arbitrary bytes after one
// valid request, first, with the process's mux but /debug/pprof (a CPU
// profile would hold an input for its 30 s). The loop must not panic, must
// not allocate with a declared length (at most a fixed allowance plus a
// multiple of the input, whatever Content-Length says), and everything it
// writes must be a run of answers framed by Content-Length alone — or, where
// chunked is set, by chunks that end in the zero chunk — the first of them
// the valid exchange's 200, whose body valid accepts.
func fuzzConn(f *testing.F, p *process, first string, chunked bool, valid func([]byte) bool) {
	mux := http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
		if strings.HasPrefix(req.URL.Path, "/debug/pprof") {
			http.NotFound(rw, req)
			return
		}
		p.mux.ServeHTTP(rw, req)
	})
	f.Fuzz(func(t *testing.T, in []byte) {
		c := &keptConn{scriptConn: scriptConn{r: bytes.NewReader(append([]byte(first), in...))}}
		c.out.Grow(4 << 10)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		(&conn{c: c, br: bufio.NewReader(c)}).serve(context.Background(), mux, p.hot)
		runtime.ReadMemStats(&after)
		if grown, allowed := after.TotalAlloc-before.TotalAlloc, uint64(64*maxRequestBody+64*len(in)); grown > allowed {
			t.Fatalf("serving %d bytes allocated %d, want at most %d", len(in), grown, allowed)
		}
		br := bufio.NewReader(&c.out)
		for i := 0; ; i++ {
			if _, err := br.Peek(1); err == io.EOF {
				if i == 0 {
					t.Fatal("no answer to the valid exchange")
				}
				return
			}
			resp, err := http.ReadResponse(br, nil)
			if err != nil {
				t.Fatalf("answer %d does not parse: %v\n%q", i, err, c.out.Bytes())
			}
			body, err := io.ReadAll(resp.Body)
			framed := resp.Header.Get("Content-Length") != "" && len(resp.TransferEncoding) == 0 ||
				chunked && resp.Header.Get("Content-Length") == "" && slices.Equal(resp.TransferEncoding, []string{"chunked"})
			if err != nil || !framed {
				t.Fatalf("answer %d not framed by Content-Length alone or whole chunks (%v)\n%q", i, err, c.out.Bytes())
			}
			if i == 0 && (resp.StatusCode != http.StatusOK || !valid(body)) {
				t.Fatalf("valid exchange answered %d %q", resp.StatusCode, body)
			}
		}
	})
}

// FuzzWorkerConn runs fuzzConn on a worker's loop after a valid /infer.
func FuzzWorkerConn(f *testing.F) {
	w := NewWorker(profile.ImageSet(), sim.Deterministic{}, 1e10, 1)
	w.net = pipes
	// The inputs' trace contexts fill the worker's ring across the run; a
	// short ring keeps a /debug/traces answer within the allocation bound.
	w.Traces = telemetry.NewTraceBuffer(8)
	if err := w.Start(); err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { _ = w.Stop() })
	fuzzConn(f, &w.process, dispatchRequest("/infer", `{"model":"shufflenet_v2_x0_5","batch":1}`, ""), false,
		func(body []byte) bool {
			_, ok := parseInferLatency(body)
			return ok
		})
}

// FuzzFrontendConn runs fuzzConn on a standalone frontend's loop, over two
// workers, after a valid /query.
func FuzzFrontendConn(f *testing.F) {
	for _, seed := range []string{
		"POST /query?tenant=gold HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}",
		"POST /query HTTP/1.1\r\nX-Tenant: gold\r\nX-Trace-Id: " + strings.Repeat("a", 5000) + "\r\n\r\n",
		"POST /query HTTP/1.1\r\nX-Trace-Id: x;y\r\n\r\nGET /stats HTTP/1.1\r\n\r\n",
		"POST /query HTTP/1.0\r\n\r\n",
	} {
		f.Add([]byte(seed))
	}
	// Short rings keep a /debug/traces or /debug/decisions answer within
	// the allocation bound.
	var urls []string
	for i := 0; i < 2; i++ {
		w := NewWorker(profile.ImageSet(), sim.Deterministic{}, 1e10, int64(i+1))
		w.net, w.Traces = pipes, telemetry.NewTraceBuffer(8)
		if err := w.Start(); err != nil {
			f.Fatal(err)
		}
		f.Cleanup(func() { _ = w.Stop() })
		urls = append(urls, w.URL())
	}
	fastest := profile.ImageSet().Fastest()
	fe := &Frontend{
		Profiles: profile.ImageSet(), SLO: 1e9, TimeScale: 1e10, Workers: urls,
		Select:    func(_, _ float64, n int, _ float64) (string, int) { return fastest.Name, min(n, fastest.MaxBatch()) },
		process:   process{net: pipes, Traces: telemetry.NewTraceBuffer(8)},
		Decisions: telemetry.NewDecisionBuffer(8),
		// Probes that never tick keep the coverage an input reaches its own.
		healthInterval: time.Hour,
	}
	if err := fe.Start(); err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { _ = fe.Stop() })
	fuzzConn(f, &fe.process, "POST /query HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}", false,
		func(body []byte) bool {
			var qr QueryResponse
			line, rest, _ := bytes.Cut(body, []byte("\n"))
			return json.Unmarshal(line, &qr) == nil && len(rest) == 0 && qr.Model != "" && qr.Error == ""
		})
}

// FuzzLLMWorkerConn runs fuzzConn on an LLM worker's loop after a valid
// /generate, whose stream is chunked.
func FuzzLLMWorkerConn(f *testing.F) {
	gen := func(body string) string { return dispatchRequest("/generate", body, "") }
	for _, seed := range []string{
		gen(`{"prefill":16,"decode":3}`),
		gen(`{"prefill":1,"decode":1` + strings.Repeat(" ", 2*maxRequestBody) + `}`),
		"POST /generate HTTP/1.1\r\nX-Trace-Id: " + strings.Repeat("a", 5000) + "\r\nContent-Length: 2\r\n\r\n{}",
		gen(`{"prefill":-1,"decode":1e9}`),
		"GET /generate HTTP/1.1\r\n\r\n",
	} {
		f.Add([]byte(seed))
	}
	models := llm.BuiltinSet()
	w := NewLLMWorker(models, 8.0, 1e10, sim.FixedSelector(models.Fastest()))
	w.net = pipes
	w.Traces = telemetry.NewTraceBuffer(8)
	if err := w.Start(); err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { _ = w.Stop() })
	fuzzConn(f, &w.process, gen(`{"prefill":8,"decode":4}`), true, func(body []byte) bool {
		var sum GenSummary
		tokens, trailer, ok := bytes.Cut(body, []byte("\n"))
		return ok && string(tokens) == "tttt" && json.Unmarshal(trailer, &sum) == nil && sum.Decode == 4
	})
}
