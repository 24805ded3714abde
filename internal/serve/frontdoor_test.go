package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"ramsis/internal/admit"
)

// shedAll is an admitter that sheds every query, with a 3 s back-off hint.
type shedAll struct{}

func (shedAll) Name() string { return "shed-all" }

func (shedAll) Admit(admit.Request) admit.Verdict {
	return admit.Verdict{RetryAfter: 3, Reason: admit.ReasonQueueFull}
}

// TestFrontDoorAnswersLikeNetHTTP records what a net/http client gets from
// both front doors, a standalone frontend and a gateway. POST /query is
// answered 200 with the QueryResponse JSON line, the tenant named by
// X-Tenant or by ?tenant=; a 5,000-byte X-Trace-Id is served; GET /query
// is 405. An unknown tenant is 400 at the gateway, whose plane has no
// default tenant (so a ?tenant= it never parsed would be 400 too), while
// the standalone frontend serves every name as its one tenant. Once
// admission sheds, the answer is 429 with Retry-After.
func TestFrontDoorAnswersLikeNetHTTP(t *testing.T) {
	for _, door := range []struct {
		name    string
		start   func(t *testing.T, shed bool) string
		unknown int
	}{
		{"frontend", func(t *testing.T, shed bool) string {
			cfg := burstCluster()
			if shed {
				cfg.Admit = shedAll{}
			}
			return startCluster(t, cfg).URL()
		}, http.StatusOK},
		{"gateway", func(t *testing.T, shed bool) string {
			cfg := burstPlane()
			if shed {
				// A held clock never refills gold's one-token bucket, and
				// nothing is lent past it.
				cfg.clock = heldClock(0)
				cfg.Tenants[0].BurstSec = 0.5
				cfg.Fair.NoBorrow = true
			}
			return startSharded(t, cfg).URL()
		}, http.StatusBadRequest},
	} {
		t.Run(door.name, func(t *testing.T) {
			base := door.start(t, false)
			for _, c := range []struct {
				name, method, path string
				header             map[string]string
				want               int
			}{
				{"X-Tenant", http.MethodPost, "/query", map[string]string{"X-Tenant": "gold"}, http.StatusOK},
				{"?tenant=", http.MethodPost, "/query?tenant=gold", nil, http.StatusOK},
				{"unknown X-Tenant", http.MethodPost, "/query", map[string]string{"X-Tenant": "nosuch"}, door.unknown},
				{"unknown ?tenant=", http.MethodPost, "/query?tenant=nosuch", nil, door.unknown},
				{"GET", http.MethodGet, "/query?tenant=gold", nil, http.StatusMethodNotAllowed},
				{"long X-Trace-Id", http.MethodPost, "/query",
					map[string]string{"X-Tenant": "gold", "X-Trace-Id": strings.Repeat("a", 5000)}, http.StatusOK},
			} {
				var body io.Reader
				if c.method == http.MethodPost {
					body = strings.NewReader(`{}`)
				}
				req, err := http.NewRequest(c.method, base+c.path, body)
				if err != nil {
					t.Fatal(err)
				}
				for k, v := range c.header {
					req.Header.Set(k, v)
				}
				resp, err := pipeClient.Do(req)
				if err != nil {
					t.Fatalf("%s: %v", c.name, err)
				}
				got, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					t.Fatalf("%s: reading body: %v", c.name, err)
				}
				if resp.StatusCode != c.want {
					t.Errorf("%s: status %d %q, want %d", c.name, resp.StatusCode, got, c.want)
					continue
				}
				if c.want != http.StatusOK {
					continue
				}
				var qr QueryResponse
				line, rest, _ := bytes.Cut(got, []byte("\n"))
				if err := json.Unmarshal(line, &qr); err != nil || len(rest) > 0 || qr.Model == "" || qr.Error != "" {
					t.Errorf("%s: body %q (%v), want one QueryResponse line", c.name, got, err)
				}
				if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
					t.Errorf("%s: Content-Type %q, want application/json", c.name, ct)
				}
			}

			base = door.start(t, true)
			for i := 0; ; i++ {
				if i == 8 {
					t.Fatal("eight queries, none shed")
				}
				req, err := http.NewRequest(http.MethodPost, base+"/query", strings.NewReader(`{}`))
				if err != nil {
					t.Fatal(err)
				}
				req.Header.Set("X-Tenant", "gold")
				resp, err := pipeClient.Do(req)
				if err != nil {
					t.Fatal(err)
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					continue
				}
				if resp.StatusCode != http.StatusTooManyRequests || resp.Header.Get("Retry-After") == "" {
					t.Errorf("shed: status %d, Retry-After %q; want 429 with a Retry-After", resp.StatusCode, resp.Header.Get("Retry-After"))
				}
				break
			}
		})
	}
}

// TestFrontDoorClosesOnWhatItDoesNotServe sends a frontend, each after one
// served /query on a fresh connection, a request its loop does not keep the
// connection for: a /query over HTTP/1.0 is answered 505, and a cold GET of
// /stats or /metrics 200, each framed by Content-Length and then closed; a
// /query with a chunked body closes unanswered.
func TestFrontDoorClosesOnWhatItDoesNotServe(t *testing.T) {
	host := strings.TrimPrefix(startCluster(t, burstCluster()).URL(), "http://")
	for _, c := range []struct {
		req  string
		want int
	}{
		{"POST /query HTTP/1.0\r\nContent-Length: 2\r\n\r\n{}", http.StatusHTTPVersionNotSupported},
		{"GET /stats HTTP/1.1\r\nHost: f\r\n\r\n", http.StatusOK},
		{"GET /metrics HTTP/1.1\r\nHost: f\r\n\r\n", http.StatusOK},
		{"POST /query HTTP/1.1\r\nHost: f\r\nTransfer-Encoding: chunked\r\n\r\n2\r\n{}\r\n0\r\n\r\n", 0},
	} {
		conn, err := pipes.dial(host)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		br := bufio.NewReader(conn)
		if status, _ := readAnswer(t, conn, br, dispatchRequest("/query", "{}", "")); status != http.StatusOK {
			t.Fatalf("first /query: status %d, want 200", status)
		}
		requireClosed(t, conn, br, []byte(c.req), c.want)
	}
}
