package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"maps"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/plutus-gpu/plutus/internal/castore"
	"github.com/plutus-gpu/plutus/internal/harness"
	"github.com/plutus-gpu/plutus/internal/secmem"
	"github.com/plutus-gpu/plutus/internal/server"
)

// newWorker boots one in-process plutusd (real server, real harness
// backend) and returns its base URL plus the backend runner.
func newWorker(t *testing.T, hcfg harness.Config) (string, *harness.Runner) {
	t.Helper()
	r := harness.NewRunner(hcfg)
	s := server.New(server.Config{
		Backend:         r,
		Workers:         2,
		QueueDepth:      16,
		MaxInstructions: hcfg.MaxInstructions,
	})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(s.Drain)
	return ts.URL, r
}

// testConfig is the fast-heartbeat coordinator config the in-process
// tests share. LeaseTimeout stays long so only the tests that want
// stealing see it.
func testConfig(hcfg harness.Config, workers ...string) Config {
	return Config{
		Workers:        workers,
		Harness:        hcfg,
		HeartbeatEvery: 20 * time.Millisecond,
		DeadAfter:      2,
		LeaseTimeout:   10 * time.Second,
		MaxAttempts:    6,
		RetryBase:      20 * time.Millisecond,
		RetryCap:       200 * time.Millisecond,
	}
}

// localRendering is the single-box oracle: the canonical JSON bytes of
// one cell run on a fresh local Runner with the same config.
func localRendering(t *testing.T, hcfg harness.Config, bench, scheme string, seed uint64) string {
	t.Helper()
	r := harness.NewRunner(hcfg)
	sc, err := secmem.ByName(scheme, r.Config().ProtectedBytes)
	if err != nil {
		t.Fatal(err)
	}
	st, err := r.RunSeeded(bench, sc, seed)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := harness.WriteRunJSON(&b, st); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestSweepMatchesSingleBox is the tentpole acceptance in miniature:
// a 2-benchmark × 2-scheme × 2-seed sweep sharded across three workers
// lands every result in the store, byte-identical to a local single-box
// run of the same run-cache key.
func TestSweepMatchesSingleBox(t *testing.T) {
	hcfg := harness.Config{MaxInstructions: 400, Parallelism: 2}
	u1, _ := newWorker(t, hcfg)
	u2, _ := newWorker(t, hcfg)
	u3, _ := newWorker(t, hcfg)
	co := New(testConfig(hcfg, u1, u2, u3))
	defer co.Close()

	sw, err := co.SubmitSweep("ci", []string{"bfs", "stream"}, []string{"pssm", "plutus"}, []uint64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := sw.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	st := sw.Status()
	if !st.Done || st.Completed != 8 || st.Failed != 0 {
		t.Fatalf("sweep status %+v", st)
	}

	for _, cell := range st.Cells {
		content, digest, err := co.Store().Get(cell.Key)
		if err != nil {
			t.Fatalf("store missing %s: %v", cell.Key, err)
		}
		if digest != cell.Digest {
			t.Errorf("cell %s digest mismatch: store %s, sweep %s", cell.Key, digest, cell.Digest)
		}
		want := localRendering(t, hcfg, cell.Benchmark, cell.Scheme, cell.Seed)
		if string(content) != want {
			t.Errorf("cell %s: cluster bytes differ from single-box oracle", cell.Key)
		}
	}
	// All three workers should have participated: 8 cells, capacity-
	// bounded least-loaded spread. (Dedup on a worker could starve one
	// only if keys collided — they don't.)
	var active int
	for _, w := range co.Workers() {
		if w.Completed > 0 {
			active++
		}
	}
	if active < 2 {
		t.Errorf("only %d workers took leases; sharding is not spreading", active)
	}
}

// TestWorkerDeathMidSweep kills one of three workers while the sweep is
// in flight: the coordinator retries its leases on the survivors with
// backoff and the sweep still completes with oracle-identical bytes.
func TestWorkerDeathMidSweep(t *testing.T) {
	hcfg := harness.Config{MaxInstructions: 400, Parallelism: 2}
	r1 := harness.NewRunner(hcfg)
	s1 := server.New(server.Config{Backend: r1, Workers: 1, QueueDepth: 2, MaxInstructions: hcfg.MaxInstructions})
	victim := httptest.NewServer(s1.Handler())
	u2, _ := newWorker(t, hcfg)
	u3, _ := newWorker(t, hcfg)

	co := New(testConfig(hcfg, victim.URL, u2, u3))
	defer co.Close()

	sw, err := co.SubmitSweep("ci", []string{"bfs", "stream", "hotspot"}, []string{"pssm", "plutus"}, []uint64{4})
	if err != nil {
		t.Fatal(err)
	}
	// Give the scheduler a beat to lease cells onto the victim, then
	// kill it abruptly — no drain, in-flight HTTP cut mid-poll.
	time.Sleep(30 * time.Millisecond)
	victim.CloseClientConnections()
	victim.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := sw.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	st := sw.Status()
	if st.Completed != 6 || st.Failed != 0 {
		t.Fatalf("sweep after worker death: %+v", st)
	}
	for _, cell := range st.Cells {
		content, _, err := co.Store().Get(cell.Key)
		if err != nil {
			t.Fatal(err)
		}
		if want := localRendering(t, hcfg, cell.Benchmark, cell.Scheme, cell.Seed); string(content) != want {
			t.Errorf("cell %s diverged from oracle after worker death", cell.Key)
		}
	}
}

// cancelInFlight parks a run at its first checkpoint (see the harness
// checkpoint tests): the first ctx.Err() check — RunSeededContext's entry
// guard — passes, every later one reports cancellation.
type cancelInFlight struct {
	context.Context
	calls atomic.Int32
}

func (c *cancelInFlight) Err() error {
	if c.calls.Add(1) == 1 {
		return nil
	}
	return context.Canceled
}

func (c *cancelInFlight) Done() <-chan struct{} { return nil }

// strugglerWorker fakes a plutusd that accepts runs but never finishes
// them — its event stream says running and then stays open — while
// serving a real parked PLUTSNAP on GET /v1/snapshots: the observable
// surface of a worker stuck mid-run.
func strugglerWorker(t *testing.T, snapshot []byte) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"status":"ok"}`))
	})
	mux.HandleFunc("GET /debug/statsz", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(server.Statsz{Workers: 1, QueueCapacity: 4})
	})
	mux.HandleFunc("POST /v1/runs", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(server.RunStatus{ID: "stuck", State: server.StateRunning})
	})
	mux.HandleFunc("GET /v1/runs/stuck", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(server.RunStatus{ID: "stuck", State: server.StateRunning})
	})
	mux.HandleFunc("GET /v1/runs/stuck/events", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/event-stream")
		w.Write([]byte("event: running\ndata: {\"seq\":1,\"state\":\"running\"}\n\n"))
		w.(http.Flusher).Flush()
		<-r.Context().Done()
	})
	mux.HandleFunc("GET /v1/snapshots", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Write(snapshot)
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts
}

// TestCheckpointMigration is the satellite acceptance: a worker goes
// dark mid-run, the coordinator steals the lease, ships the straggler's
// PLUTSNAP to a second worker (PUT /v1/snapshots) and resubmits there;
// the resumed run's bytes are identical to an uninterrupted run of the
// same cell.
func TestCheckpointMigration(t *testing.T) {
	mkCfg := func(dir string) harness.Config {
		return harness.Config{
			MaxInstructions: 2000,
			Parallelism:     1,
			CheckpointEvery: 500,
			CheckpointDir:   dir,
			Resume:          true,
		}
	}
	// Park a genuine mid-run snapshot the way the harness checkpoint
	// tests do, to stand in for the straggler's last checkpoint.
	parkDir := t.TempDir()
	parker := harness.NewRunner(mkCfg(parkDir))
	sc, err := secmem.ByName("plutus", parker.Config().ProtectedBytes)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := parker.RunSeededContext(&cancelInFlight{Context: context.Background()}, "bfs", sc, 5); err == nil {
		t.Fatal("expected preemption")
	}
	snap, err := os.ReadFile(parker.SnapshotPathSeeded("bfs", sc, 5))
	if err != nil {
		t.Fatal(err)
	}

	straggler := strugglerWorker(t, snap)
	thiefDir := t.TempDir()
	thiefURL, thief := newWorker(t, mkCfg(thiefDir))

	cfg := testConfig(mkCfg(t.TempDir()), straggler.URL)
	cfg.LeaseTimeout = 150 * time.Millisecond
	co := New(cfg)
	defer co.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	type out struct {
		content []byte
		err     error
	}
	res := make(chan out, 1)
	go func() {
		content, _, err := co.RunCell(ctx, "ci", "bfs", "plutus", 5)
		res <- out{content, err}
	}()
	// The straggler is the only worker until it demonstrably holds the
	// lease; only then does the thief join, so the steal — not initial
	// placement — is what lands the cell there.
	for deadline := time.Now().Add(10 * time.Second); ; {
		ws := co.Workers()
		if len(ws) == 1 && ws[0].Inflight == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("straggler never took the lease")
		}
		time.Sleep(5 * time.Millisecond)
	}
	co.AddWorker(thiefURL)

	r := <-res
	if r.err != nil {
		t.Fatal(r.err)
	}
	content := r.content

	n := co.Counters()
	if n.Steals == 0 {
		t.Error("lease was never stolen from the straggler")
	}
	if n.Migrations == 0 {
		t.Error("no snapshot was migrated to the thief")
	}
	// The thief must have executed the cell (the straggler never
	// finishes anything).
	if m := thief.Metrics(); m.Executions != 1 {
		t.Errorf("thief executed %d runs, want 1", m.Executions)
	}

	// Oracle: the same cell run uninterrupted on a fresh single box with
	// the same checkpoint cadence.
	if want := localRendering(t, mkCfg(t.TempDir()), "bfs", "plutus", 5); string(content) != want {
		t.Error("migrated+resumed result differs from uninterrupted run")
	}
}

// TestQuotaShedding: admissions beyond the tenant's pending bound are
// refused with *OverQuotaError (mapped to 429 + Retry-After at the HTTP
// layer), while other tenants stay unaffected.
func TestQuotaShedding(t *testing.T) {
	hcfg := harness.Config{MaxInstructions: 400, Parallelism: 1}
	cfg := testConfig(hcfg) // no workers: admitted cells just pend
	cfg.TenantMaxPending = 2
	co := New(cfg)
	defer co.Close()

	if _, err := co.SubmitSweep("greedy", []string{"bfs"}, []string{"pssm", "plutus"}, nil); err != nil {
		t.Fatal(err) // 2 cells: exactly at quota
	}
	_, err := co.SubmitSweep("greedy", []string{"stream"}, []string{"pssm"}, nil)
	var quota *OverQuotaError
	if !errors.As(err, &quota) {
		t.Fatalf("err = %v, want *OverQuotaError", err)
	}
	if quota.Tenant != "greedy" || quota.Pending != 2 || quota.Limit != 2 {
		t.Fatalf("quota detail %+v", quota)
	}
	if co.Counters().Shed != 1 {
		t.Fatalf("Shed = %d, want 1", co.Counters().Shed)
	}

	// Another tenant's quota is its own.
	if _, err := co.SubmitSweep("modest", []string{"bfs"}, []string{"pssm"}, nil); err != nil {
		t.Fatalf("independent tenant shed: %v", err)
	}

	// The HTTP layer renders shedding as 429 with Retry-After, the same
	// contract plutusd's queue uses.
	ts := httptest.NewServer(co.Handler())
	defer ts.Close()
	body := strings.NewReader(`{"tenant":"greedy","benchmark":"bfs","scheme":"pssm","seed":9}`)
	resp, err := http.Post(ts.URL+"/v1/cells", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
}

// TestDivergenceFailsCell: a worker result that disagrees with a
// binding installed while the cell was in flight (the race two
// divergent workers would produce) must fail the cell with the
// divergence alarm, not overwrite the store.
func TestDivergenceFailsCell(t *testing.T) {
	hcfg := harness.Config{MaxInstructions: 400, Parallelism: 1}
	u1, _ := newWorker(t, hcfg)
	store := castore.New()
	cfg := testConfig(hcfg) // no workers yet: the cell blocks in acquireWorker
	cfg.Store = store
	cfg.MaxAttempts = 1
	co := New(cfg)
	defer co.Close()

	key, err := co.resolve("bfs", "pssm", 1)
	if err != nil {
		t.Fatal(err)
	}

	// Start the cell while no worker is live, forge a conflicting
	// binding for its key, then let a worker at it: its honest result
	// must trip the alarm on Put.
	c, _, _ := co.startCell("ci", "bfs", "pssm", key, 1)
	if c == nil {
		t.Fatal("store hit on an empty store")
	}
	if _, err := store.Put(key, []byte("forged result")); err != nil {
		t.Fatal(err)
	}
	co.AddWorker(u1)

	select {
	case <-c.done:
	case <-time.After(30 * time.Second):
		t.Fatal("cell never settled")
	}
	var div *castore.DivergenceError
	if !errors.As(c.err, &div) {
		t.Fatalf("err = %v, want *castore.DivergenceError", c.err)
	}
	content, _, err := store.Get(key)
	if err != nil || string(content) != "forged result" {
		t.Fatalf("original binding clobbered: %q, %v", content, err)
	}
}

// TestDedupAndStoreHits: identical concurrent cells coalesce into one
// execution; repeats after settlement are store hits.
func TestDedupAndStoreHits(t *testing.T) {
	hcfg := harness.Config{MaxInstructions: 400, Parallelism: 2}
	u1, r1 := newWorker(t, hcfg)
	co := New(testConfig(hcfg, u1))
	defer co.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	type res struct {
		digest string
		err    error
	}
	results := make(chan res, 3)
	for i := 0; i < 3; i++ {
		go func() {
			_, digest, err := co.RunCell(ctx, "ci", "bfs", "plutus", 7)
			results <- res{digest, err}
		}()
	}
	var first string
	for i := 0; i < 3; i++ {
		r := <-results
		if r.err != nil {
			t.Fatal(r.err)
		}
		if first == "" {
			first = r.digest
		} else if r.digest != first {
			t.Fatalf("digests diverged: %s vs %s", first, r.digest)
		}
	}
	if m := r1.Metrics(); m.Executions != 1 {
		t.Errorf("worker executed %d times for one cell, want 1", m.Executions)
	}
	if _, _, err := co.RunCell(ctx, "ci", "bfs", "plutus", 7); err != nil {
		t.Fatal(err)
	}
	if n := co.Counters(); n.StoreHits == 0 {
		t.Error("repeat request did not hit the store")
	}
	if !strings.Contains(co.MetricsText(), "plutus_coord_store_hits_total") {
		t.Error("coordinator metrics missing store-hit counter")
	}
}

// countingWorker boots a plutusd like newWorker, behind a mux that
// counts each request under the API route it takes.
func countingWorker(t *testing.T, hcfg harness.Config) (string, func() map[string]int) {
	t.Helper()
	s := server.New(server.Config{
		Backend:         harness.NewRunner(hcfg),
		Workers:         2,
		QueueDepth:      16,
		MaxInstructions: hcfg.MaxInstructions,
	})
	h := s.Handler()
	var mu sync.Mutex
	counts := map[string]int{}
	mux := http.NewServeMux()
	for _, route := range []string{
		"POST /v1/runs", "GET /v1/runs/{id}", "GET /v1/runs/{id}/events", "GET /v1/runs/{id}/result",
		"/v1/snapshots", "/",
	} {
		mux.HandleFunc(route, func(w http.ResponseWriter, r *http.Request) {
			mu.Lock()
			counts[route]++
			mu.Unlock()
			h.ServeHTTP(w, r)
		})
	}
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	t.Cleanup(s.Drain)
	return ts.URL, func() map[string]int {
		mu.Lock()
		defer mu.Unlock()
		return maps.Clone(counts)
	}
}

// TestNoSnapshotTrafficWithoutCheckpoints: at checkpoint cadence 0 no
// worker holds a snapshot, so a sweep sends no /v1/snapshots request at
// all, and each cell costs its worker exactly one submit, one event
// stream, one status and one result request.
func TestNoSnapshotTrafficWithoutCheckpoints(t *testing.T) {
	hcfg := harness.Config{MaxInstructions: 400, Parallelism: 2}
	u, counts := countingWorker(t, hcfg)
	co := New(testConfig(hcfg, u))
	defer co.Close()

	sw, err := co.SubmitSweep("ci", []string{"bfs", "stream"}, []string{"pssm", "plutus"}, []uint64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := sw.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	cells := sw.Status().Total
	got := counts()
	if got["/v1/snapshots"] != 0 {
		t.Errorf("%d /v1/snapshots requests at cadence 0, want 0", got["/v1/snapshots"])
	}
	for _, route := range []string{"POST /v1/runs", "GET /v1/runs/{id}/events", "GET /v1/runs/{id}", "GET /v1/runs/{id}/result"} {
		if got[route] != cells {
			t.Errorf("%s: %d requests for %d cells, want one per cell", route, got[route], cells)
		}
	}
}

// TestNewKeepsGCPercent: the coordinator only computes store keys and
// never simulates, so building one must leave the process's GC target
// alone (a simulating harness.Runner raises it).
func TestNewKeepsGCPercent(t *testing.T) {
	prev := debug.SetGCPercent(100)
	defer debug.SetGCPercent(prev)
	co := New(Config{})
	defer co.Close()
	if got := debug.SetGCPercent(100); got != 100 {
		t.Fatalf("cluster.New set the GC percent to %d, want it left at 100", got)
	}
}
