// Integration tests for plutusd's serving core, written against the
// public wire surface (httptest + the Go client) so they double as
// client tests. The acceptance trio from the daemon design:
//
//	(a) two concurrent identical submissions share one execution,
//	(b) a full queue yields 429 with Retry-After,
//	(c) a result fetched over HTTP is byte-identical to CLI output.
package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/plutus-gpu/plutus/internal/harness"
	"github.com/plutus-gpu/plutus/internal/secmem"
	"github.com/plutus-gpu/plutus/internal/server"
	"github.com/plutus-gpu/plutus/internal/server/client"
	"github.com/plutus-gpu/plutus/internal/stats"
)

// fakeBackend is a gated Backend: each run reports on started, then
// blocks until the test closes (or feeds) release. It lets tests hold
// jobs in flight deterministically, without simulating anything.
type fakeBackend struct {
	mu      sync.Mutex
	runs    int
	started chan string
	release chan struct{}
}

func newFakeBackend() *fakeBackend {
	return &fakeBackend{started: make(chan string, 16), release: make(chan struct{})}
}

func (f *fakeBackend) RunSeededContext(_ context.Context, bench string, sc secmem.Config, _ uint64) (*stats.Stats, error) {
	f.mu.Lock()
	f.runs++
	f.mu.Unlock()
	f.started <- bench
	<-f.release
	return &stats.Stats{Benchmark: bench, Scheme: sc.Scheme, Instructions: 1, Cycles: 1}, nil
}

func (f *fakeBackend) runCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.runs
}

// startServer boots a Server over httptest and returns a client bound
// to it. Cleanup releases any gated jobs and drains.
func startServer(t *testing.T, cfg server.Config, fb *fakeBackend) (*server.Server, *client.Client) {
	t.Helper()
	s := server.New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		if fb != nil {
			fb.mu.Lock()
			select {
			case <-fb.release:
			default:
				close(fb.release)
			}
			fb.mu.Unlock()
		}
		s.Drain()
		ts.Close()
	})
	return s, client.New(ts.URL)
}

func waitStarted(t *testing.T, fb *fakeBackend) string {
	t.Helper()
	select {
	case b := <-fb.started:
		return b
	case <-time.After(10 * time.Second):
		t.Fatal("timed out waiting for a job to reach the backend")
		return ""
	}
}

// TestConcurrentIdenticalSubmissionsShareOneExecution is acceptance (a):
// while one bfs/pssm job is in flight, an identical submission must not
// enqueue a second job — it returns the same run, marked Deduped, and
// the backend runs exactly once.
func TestConcurrentIdenticalSubmissionsShareOneExecution(t *testing.T) {
	fb := newFakeBackend()
	_, c := startServer(t, server.Config{Backend: fb, Workers: 2, QueueDepth: 4}, fb)
	ctx := context.Background()

	first, err := c.Submit(ctx, server.RunRequest{Benchmark: "bfs", Scheme: "pssm"})
	if err != nil {
		t.Fatal(err)
	}
	waitStarted(t, fb) // the job is now running, not just queued

	second, err := c.Submit(ctx, server.RunRequest{Benchmark: "bfs", Scheme: "pssm"})
	if err != nil {
		t.Fatal(err)
	}
	if !second.Deduped {
		t.Error("second identical submission was not marked Deduped")
	}
	if second.ID != first.ID {
		t.Errorf("dedup returned a different run: %s vs %s", second.ID, first.ID)
	}

	close(fb.release)
	final, err := c.Wait(ctx, first.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != server.StateDone {
		t.Fatalf("run finished in state %q: %s", final.State, final.Error)
	}
	if got := fb.runCount(); got != 1 {
		t.Errorf("backend executed %d times for two identical submissions, want 1", got)
	}

	sz, err := c.Statsz(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if sz.Accepted != 1 || sz.Deduped != 1 {
		t.Errorf("statsz = accepted %d / deduped %d, want 1 / 1", sz.Accepted, sz.Deduped)
	}
}

// TestQueueFullYields429 is acceptance (b): with one worker held in
// flight and a depth-1 queue occupied, the next distinct submission is
// rejected with 429, a Retry-After header, and the same advice in the
// JSON body.
func TestQueueFullYields429(t *testing.T) {
	fb := newFakeBackend()
	_, c := startServer(t, server.Config{Backend: fb, Workers: 1, QueueDepth: 1}, fb)
	ctx := context.Background()

	if _, err := c.Submit(ctx, server.RunRequest{Benchmark: "bfs", Scheme: "pssm"}); err != nil {
		t.Fatal(err)
	}
	waitStarted(t, fb) // worker occupied
	if _, err := c.Submit(ctx, server.RunRequest{Benchmark: "hotspot", Scheme: "pssm"}); err != nil {
		t.Fatal(err) // fills the queue
	}

	// Raw HTTP so the Retry-After header itself is observable.
	body, _ := json.Marshal(server.RunRequest{Benchmark: "kmeans", Scheme: "pssm"})
	resp, err := http.Post(c.BaseURL()+"/v1/runs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" || ra == "0" {
		t.Errorf("Retry-After header = %q, want a positive integer", ra)
	}
	var er server.ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		t.Fatal(err)
	}
	if er.RetryAfterSeconds < 1 {
		t.Errorf("RetryAfterSeconds = %d, want >= 1", er.RetryAfterSeconds)
	}

	// The client maps the same response to QueueFullError.
	if _, err := c.Submit(ctx, server.RunRequest{Benchmark: "srad", Scheme: "pssm"}); err == nil {
		t.Error("client submit on a full queue did not error")
	} else if qf := new(client.QueueFullError); !asQueueFull(err, &qf) {
		t.Errorf("client error = %v, want *client.QueueFullError", err)
	} else if qf.RetryAfter < time.Second {
		t.Errorf("client RetryAfter = %s, want >= 1s", qf.RetryAfter)
	}
}

func asQueueFull(err error, out **client.QueueFullError) bool {
	qf, ok := err.(*client.QueueFullError)
	if ok {
		*out = qf
	}
	return ok
}

// TestResultByteIdenticalToCLI is acceptance (c): results served over
// HTTP in every format must match, byte for byte, what the CLI renders
// locally for the same run through the shared harness renderers.
func TestResultByteIdenticalToCLI(t *testing.T) {
	hcfg := harness.Config{
		MaxInstructions: 3000,
		Benchmarks:      []string{"bfs"},
		Parallelism:     2,
	}
	_, c := startServer(t, server.Config{
		Backend:         harness.NewRunner(hcfg),
		Workers:         2,
		QueueDepth:      4,
		MaxInstructions: hcfg.MaxInstructions,
	}, nil)
	ctx := context.Background()

	st, err := c.Run(ctx, server.RunRequest{
		Benchmark:       "bfs",
		Scheme:          "pssm",
		MaxInstructions: hcfg.MaxInstructions,
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.State != server.StateDone {
		t.Fatalf("run finished in state %q: %s", st.State, st.Error)
	}

	// Independent local "CLI" rendering of the identical run.
	local := harness.NewRunner(hcfg)
	sc := secmem.PSSM(harness.ProtectedBytes)
	lst, err := local.Run("bfs", sc)
	if err != nil {
		t.Fatal(err)
	}
	var wantJSON, wantCSV strings.Builder
	if err := harness.WriteRunJSON(&wantJSON, lst); err != nil {
		t.Fatal(err)
	}
	if err := harness.WriteRunCSV(&wantCSV, lst); err != nil {
		t.Fatal(err)
	}
	for _, w := range []struct{ name, body string }{
		{"json", wantJSON.String()},
		{"csv", wantCSV.String()},
		{"text", harness.Report(lst, sc)},
	} {
		got, err := c.Result(ctx, st.ID, w.name)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if string(got) != w.body {
			t.Errorf("%s result over HTTP differs from CLI rendering:\n got: %q\nwant: %q",
				w.name, got, w.body)
		}
	}
}

// TestEventsStreamReplayAndLive: an SSE subscriber sees the full ordered
// lifecycle — history replayed first, live transitions after — and the
// stream terminates on its own at the terminal state.
func TestEventsStreamReplayAndLive(t *testing.T) {
	fb := newFakeBackend()
	_, c := startServer(t, server.Config{Backend: fb, Workers: 1, QueueDepth: 2}, fb)
	ctx := context.Background()

	st, err := c.Submit(ctx, server.RunRequest{Benchmark: "bfs", Scheme: "nosec"})
	if err != nil {
		t.Fatal(err)
	}
	waitStarted(t, fb)

	done := make(chan []server.Event, 1)
	go func() {
		var evs []server.Event
		if err := c.Events(ctx, st.ID, func(ev server.Event) { evs = append(evs, ev) }); err != nil {
			t.Error(err)
		}
		done <- evs
	}()
	time.Sleep(50 * time.Millisecond) // let the subscriber attach mid-run
	close(fb.release)

	select {
	case evs := <-done:
		states := make([]server.State, len(evs))
		for i, ev := range evs {
			if ev.Seq != i+1 {
				t.Errorf("event %d has seq %d", i, ev.Seq)
			}
			states[i] = ev.State
		}
		want := []server.State{server.StateQueued, server.StateRunning, server.StateDone}
		if len(states) != len(want) {
			t.Fatalf("states = %v, want %v", states, want)
		}
		for i := range want {
			if states[i] != want[i] {
				t.Fatalf("states = %v, want %v", states, want)
			}
		}
	case <-time.After(10 * time.Second):
		t.Fatal("SSE stream did not terminate")
	}
}

// TestDrainFinishesInFlightAndRefusesNew: Drain must carry an in-flight
// job to completion (its result stays fetchable) while new submissions
// are refused with 503.
func TestDrainFinishesInFlightAndRefusesNew(t *testing.T) {
	fb := newFakeBackend()
	s, c := startServer(t, server.Config{Backend: fb, Workers: 1, QueueDepth: 2}, fb)
	ctx := context.Background()

	st, err := c.Submit(ctx, server.RunRequest{Benchmark: "bfs", Scheme: "plutus"})
	if err != nil {
		t.Fatal(err)
	}
	waitStarted(t, fb)

	drained := make(chan struct{})
	go func() {
		s.Drain()
		close(drained)
	}()
	// Draining state is set synchronously before Drain blocks on workers,
	// but give the goroutine a beat to get there.
	deadline := time.Now().Add(5 * time.Second)
	for {
		sz, err := c.Statsz(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if sz.Draining {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("server never reported draining")
		}
		time.Sleep(10 * time.Millisecond)
	}

	if _, err := c.Submit(ctx, server.RunRequest{Benchmark: "hotspot", Scheme: "plutus"}); err == nil {
		t.Error("submit during drain succeeded, want 503")
	} else if !strings.Contains(err.Error(), "503") {
		t.Errorf("submit during drain: %v, want an HTTP 503", err)
	}

	close(fb.release)
	select {
	case <-drained:
	case <-time.After(10 * time.Second):
		t.Fatal("Drain did not return after the in-flight job was released")
	}
	final, err := c.Status(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != server.StateDone {
		t.Errorf("in-flight job after drain: state %q, want done", final.State)
	}
	if _, err := c.Result(ctx, st.ID, "json"); err != nil {
		t.Errorf("result not fetchable after drain: %v", err)
	}
}

// TestValidationRejectsBeforeEnqueue: unknown names and budget
// mismatches are 400s carrying the valid sets, and nothing reaches the
// queue or backend.
func TestValidationRejectsBeforeEnqueue(t *testing.T) {
	fb := newFakeBackend()
	_, c := startServer(t, server.Config{Backend: fb, Workers: 1, QueueDepth: 2, MaxInstructions: 3000}, fb)
	ctx := context.Background()

	post := func(req server.RunRequest) (*http.Response, server.ErrorResponse) {
		t.Helper()
		body, _ := json.Marshal(req)
		resp, err := http.Post(c.BaseURL()+"/v1/runs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var er server.ErrorResponse
		if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
			t.Fatal(err)
		}
		return resp, er
	}

	resp, er := post(server.RunRequest{Benchmark: "no-such-bench", Scheme: "pssm"})
	if resp.StatusCode != http.StatusBadRequest || len(er.ValidBenchmarks) == 0 {
		t.Errorf("unknown benchmark: status %d, valid list %v", resp.StatusCode, er.ValidBenchmarks)
	}
	resp, er = post(server.RunRequest{Benchmark: "bfs", Scheme: "no-such-scheme"})
	if resp.StatusCode != http.StatusBadRequest || len(er.ValidSchemes) == 0 {
		t.Errorf("unknown scheme: status %d, valid list %v", resp.StatusCode, er.ValidSchemes)
	}
	resp, _ = post(server.RunRequest{Benchmark: "bfs", Scheme: "pssm", MaxInstructions: 999})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("budget mismatch: status %d, want 400", resp.StatusCode)
	}
	if got := fb.runCount(); got != 0 {
		t.Errorf("backend ran %d times on invalid submissions, want 0", got)
	}

	// Discovery endpoints advertise the same sets the validator uses.
	schemes, err := c.Schemes(ctx)
	if err != nil || len(schemes) == 0 {
		t.Fatalf("Schemes() = %v, %v", schemes, err)
	}
	benches, err := c.Benchmarks(ctx)
	if err != nil || len(benches) == 0 {
		t.Fatalf("Benchmarks() = %v, %v", benches, err)
	}
}

// TestOversizeBodyIs413: a submit body over MaxRequestBytes is refused
// with 413 before it is buffered, and nothing reaches the backend.
func TestOversizeBodyIs413(t *testing.T) {
	fb := newFakeBackend()
	_, c := startServer(t, server.Config{Backend: fb, Workers: 1, QueueDepth: 2}, fb)
	body := `{"benchmark":"` + strings.Repeat("a", server.MaxRequestBytes) + `","scheme":"pssm"}`
	resp, err := http.Post(c.BaseURL()+"/v1/runs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413", resp.StatusCode)
	}
	if got := fb.runCount(); got != 0 {
		t.Errorf("backend ran %d times, want 0", got)
	}
}

// TestStatszReportsCacheHitRate: with the real harness backend, two
// sequential identical runs produce two accepted jobs but one execution,
// visible through /debug/statsz's cache block.
func TestStatszReportsCacheHitRate(t *testing.T) {
	hcfg := harness.Config{
		MaxInstructions: 3000,
		Benchmarks:      []string{"bfs"},
		Parallelism:     2,
	}
	_, c := startServer(t, server.Config{
		Backend:    harness.NewRunner(hcfg),
		Workers:    1,
		QueueDepth: 2,
	}, nil)
	ctx := context.Background()

	for i := 0; i < 2; i++ {
		st, err := c.Run(ctx, server.RunRequest{Benchmark: "bfs", Scheme: "nosec"})
		if err != nil {
			t.Fatal(err)
		}
		if st.State != server.StateDone {
			t.Fatalf("run %d finished in state %q: %s", i, st.State, st.Error)
		}
	}
	sz, err := c.Statsz(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if sz.Cache == nil {
		t.Fatal("statsz.Cache missing for a harness-backed server")
	}
	if sz.Cache.Executions != 1 || sz.Cache.Lookups != 2 {
		t.Errorf("cache = %d executions / %d lookups, want 1 / 2", sz.Cache.Executions, sz.Cache.Lookups)
	}
	if sz.Cache.HitRate != 0.5 {
		t.Errorf("cache hit rate = %v, want 0.5", sz.Cache.HitRate)
	}
	if sz.Accepted != 2 || sz.Completed != 2 {
		t.Errorf("statsz accepted/completed = %d/%d, want 2/2", sz.Accepted, sz.Completed)
	}
}
