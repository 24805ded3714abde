package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestFlagSurface pins every flag's name and default. The golden is
// flag.VisitAll over the binary before the internal/cli refactor; a dropped,
// renamed or re-defaulted flag fails here.
func TestFlagSurface(t *testing.T) {
	fs, _ := newFlags(io.Discard)
	var got strings.Builder
	fs.VisitAll(func(f *flag.Flag) { fmt.Fprintf(&got, "%s=%s\n", f.Name, f.DefValue) })
	want, err := os.ReadFile("testdata/flags.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("flag surface changed:\n--- got\n%s--- want\n%s", got.String(), want)
	}
}

// syncBuffer is a stdout the test can read while run is still writing.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// waitGoroutines fails the test unless the goroutine count returns to
// baseline: run's deferred Stop and Close calls must have taken the whole
// deployment down.
func waitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	http.DefaultClient.CloseIdleConnections()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines after run returned, %d before:\n%s",
				runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// awaitOutput polls a running run's stdout until pattern matches and returns
// the submatches; run returning first, or 20 s without a match, is fatal.
func awaitOutput(t *testing.T, out *syncBuffer, done <-chan error, pattern string) []string {
	t.Helper()
	re := regexp.MustCompile(pattern)
	for deadline := time.Now().Add(20 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		select {
		case err := <-done:
			t.Fatalf("run returned before printing %q: %v\n%s", pattern, err, out.String())
		default:
		}
		if m := re.FindStringSubmatch(out.String()); m != nil {
			return m
		}
		if time.Now().After(deadline) {
			t.Fatalf("no %q line:\n%s", pattern, out.String())
		}
	}
}

// TestReplaySmoke runs both replay workloads end to end over localhost HTTP:
// run returns nil after the summary, with nothing left running.
func TestReplaySmoke(t *testing.T) {
	for name, tc := range map[string]struct{ args, want string }{
		"scalar": {"-workers 2 -load 40 -dur 10 -timescale 20 -d 10 -admit cap", `(?m)^served: +[1-9]\d*\noffered / shed:`},
		"llm":    {"-workload llm -workers 2 -slo 8000 -load 2 -dur 10 -timescale 50 -llm-bucket 128", `(?m)^served / failed: +[1-9]\d* / 0$`},
	} {
		t.Run(name, func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			var out bytes.Buffer
			if err := run(context.Background(), strings.Fields(tc.args), &out); err != nil {
				t.Fatalf("%v\n%s", err, out.String())
			}
			if !regexp.MustCompile(tc.want).MatchString(out.String()) || !strings.HasSuffix(out.String(), "script complete!\n") {
				t.Errorf("serve %s: summary missing %s:\n%s", tc.args, tc.want, out.String())
			}
			waitGoroutines(t, baseline)
		})
	}
}

// TestLiveSmoke starts the two live modes on a free port, has one POST /query
// answered, cancels the context — what SIGINT does under cli.Main — and
// requires run to return nil with the deployment stopped. The tenant plane
// under -lb jsq must say it solves its policies for the shards' balancer.
func TestLiveSmoke(t *testing.T) {
	tenants := tenantsFile(t)
	for name, tc := range map[string]struct{ args, banner, line string }{
		"frontend": {"-frontend -workers 2 -load 40 -timescale 20 -d 10", "live inference service at ", ""},
		"tenants":  {"-tenants " + tenants + " -shards 2 -workers 1 -timescale 20 -d 10", "multi-tenant gateway at ", ""},
		"tenants-jsq": {"-tenants " + tenants + " -shards 2 -workers 2 -lb jsq -timescale 20 -d 10", "multi-tenant gateway at ",
			"hash sharding, shortest-queue-first balancing)"},
	} {
		t.Run(name, func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var out syncBuffer
			done := make(chan error, 1)
			go func() { done <- run(ctx, strings.Fields(tc.args+" -addr 127.0.0.1:0"), &out) }()

			base := awaitOutput(t, &out, done, regexp.QuoteMeta(tc.banner)+`(http://[0-9.:]+)`)[1]
			if !strings.Contains(out.String(), tc.line) {
				t.Errorf("serve %s: output missing %q:\n%s", tc.args, tc.line, out.String())
			}
			req, _ := http.NewRequest(http.MethodPost, base+"/query", strings.NewReader("{}"))
			req.Header.Set("X-Tenant", "gold")
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("POST /query: %s: %s", resp.Status, body)
			}

			cancel()
			select {
			case err := <-done:
				if err != nil {
					t.Fatalf("run after cancel: %v", err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("run did not return after its context was cancelled")
			}
			waitGoroutines(t, baseline)
		})
	}
}

// tenantsFile writes a two-tenant contract file and returns its path.
func tenantsFile(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "tenants.json")
	if err := os.WriteFile(path, []byte(`[
		{"name": "gold", "class": "interactive", "sloMs": 2000, "weight": 2, "rateQps": 10},
		{"name": "bronze", "class": "batch", "sloMs": 8000, "weight": 1, "rateQps": 12}]`), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestReplayInterrupt cancels the context in the middle of a ten-minute
// replay of each workload — what the first SIGINT does under cli.Main — and
// requires run to return the cancellation promptly, through its deferred
// Stops, with nothing left running.
func TestReplayInterrupt(t *testing.T) {
	for name, args := range map[string]string{
		"scalar": "-workers 2 -load 40 -dur 600 -d 10",
		"llm":    "-workload llm -workers 2 -slo 8000 -load 2 -dur 600 -llm-bucket 128",
	} {
		t.Run(name, func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var out syncBuffer
			done := make(chan error, 1)
			go func() { done <- run(ctx, strings.Fields(args), &out) }()
			awaitOutput(t, &out, done, `(?m)^replaying \d+ `)
			time.Sleep(500 * time.Millisecond) // let queries be in flight

			cancel()
			select {
			case err := <-done:
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("run after cancel: %v, want context.Canceled", err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("run did not return after its context was cancelled mid-replay")
			}
			waitGoroutines(t, baseline)
		})
	}
}

// TestErrorsReturn checks that a bad invocation comes back from run as an
// error naming the offending flag, not a process exit — a flag the chosen
// mode does not read included. Each run gets a short deadline, so one that
// serves instead of failing (a live mode ignoring the flag) ends the row.
func TestErrorsReturn(t *testing.T) {
	small := " -workers 1 -load 10 -dur 1 -d 10"
	tenants := tenantsFile(t)
	for _, row := range []struct{ flagName, args string }{
		{"-workload", "-workload tokens"},
		{"-admit-degrade", "-admit-degrade 3" + small},
		{"-admit-degrade", "-admit-degrade -3" + small},
		{"-timescale", "-timescale 0" + small},
		{"-timescale", "-timescale -2" + small},
		{"-noise", "-noise -1" + small},
		{"-retry-budget", "-retry-budget -1" + small},
		{"-trace-out", "-trace-out " + filepath.Join(t.TempDir(), "missing", "traces.jsonl")},
		{"-tenants", "-tenants " + filepath.Join(t.TempDir(), "missing.json")},
		{"-llm-profile", "-workload llm -llm-profile " + filepath.Join(t.TempDir(), "missing.json")},
		{"-solver", "-solver pi" + small},
		{"-agg-queue", "-agg-queue 8" + small},
		{"-lb", "-workload llm -lb jsq -workers 1 -load 0.5 -dur 2 -timescale 50"},
		{"-retry-budget", "-workload llm -retry-budget 5 -workers 1 -load 0.5 -dur 2 -timescale 50"},
		{"-adapt-band", "-tenants " + tenants + " -adapt-band 0.3 -workers 1 -timescale 20 -d 10 -addr 127.0.0.1:0"},
		{"-llm-class", "-tenants " + tenants + " -llm-class codegen -workers 1 -timescale 20 -d 10 -addr 127.0.0.1:0"},
	} {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		err := run(ctx, strings.Fields(row.args), io.Discard)
		cancel()
		if err == nil || !strings.Contains(err.Error(), row.flagName) {
			t.Errorf("serve %s: error %v, want one naming %s", row.args, err, row.flagName)
		}
	}
}
