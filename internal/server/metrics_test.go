package server_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/plutus-gpu/plutus/internal/checkpoint"
	"github.com/plutus-gpu/plutus/internal/geom"
	"github.com/plutus-gpu/plutus/internal/gpusim"
	"github.com/plutus-gpu/plutus/internal/harness"
	"github.com/plutus-gpu/plutus/internal/secmem"
	"github.com/plutus-gpu/plutus/internal/server"
	"github.com/plutus-gpu/plutus/internal/server/client"
	"github.com/plutus-gpu/plutus/internal/trace"
)

// cancelInFlight mirrors the harness checkpoint tests' helper: a
// context whose first Err check (RunSeededContext's entry guard) passes and
// whose second (the checkpoint sink's) reports cancellation, parking
// the run at its first snapshot deterministically.
type cancelInFlight struct {
	context.Context
	calls atomic.Int32
}

func newCancelInFlight() *cancelInFlight { return &cancelInFlight{Context: context.Background()} }

func (c *cancelInFlight) Err() error {
	if c.calls.Add(1) == 1 {
		return nil
	}
	return context.Canceled
}

func (c *cancelInFlight) Done() <-chan struct{} { return nil }

// TestMetricsExposition: /metrics renders the statsz counters in the
// Prometheus text format, including the per-scheme completion series
// and the runner cache rates the coordinator's scheduler reads.
func TestMetricsExposition(t *testing.T) {
	hcfg := harness.Config{MaxInstructions: 400, Benchmarks: []string{"bfs"}, Parallelism: 2}
	_, c := startServer(t, server.Config{
		Backend:         harness.NewRunner(hcfg),
		Workers:         2,
		QueueDepth:      4,
		MaxInstructions: hcfg.MaxInstructions,
	}, nil)
	ctx := context.Background()

	for _, scheme := range []string{"pssm", "plutus"} {
		st, err := c.Run(ctx, server.RunRequest{Benchmark: "bfs", Scheme: scheme})
		if err != nil {
			t.Fatal(err)
		}
		if st.State != server.StateDone {
			t.Fatalf("%s run: state %s: %s", scheme, st.State, st.Error)
		}
	}

	text, err := c.MetricsText(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"# TYPE plutusd_queue_depth gauge",
		"plutusd_runs_completed_total 2",
		`plutusd_scheme_runs_completed_total{scheme="plutus"} 1`,
		`plutusd_scheme_runs_completed_total{scheme="pssm"} 1`,
		"plutusd_cache_lookups_total",
		"plutusd_cache_hit_rate",
		"plutusd_workers 2",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q\n%s", want, text)
		}
	}
	// The per-scheme series must come out sorted by label value —
	// deterministic exposition is what lets tests (and diffing
	// scrapers) pin it.
	if strings.Index(text, `scheme="plutus"`) > strings.Index(text, `scheme="pssm"`) {
		t.Error("per-scheme series not sorted by scheme label")
	}
}

// TestSeededRemoteMatchesLocal: a seeded run through the daemon must be
// byte-identical to the local seeded run — the property that makes any
// cluster worker's result verifiable against a single box.
func TestSeededRemoteMatchesLocal(t *testing.T) {
	hcfg := harness.Config{MaxInstructions: 400, Benchmarks: []string{"bfs"}, Parallelism: 2}
	_, c := startServer(t, server.Config{
		Backend:         harness.NewRunner(hcfg),
		Workers:         2,
		QueueDepth:      4,
		MaxInstructions: hcfg.MaxInstructions,
	}, nil)
	ctx := context.Background()

	st, err := c.Run(ctx, server.RunRequest{Benchmark: "bfs", Scheme: "plutus", Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if st.State != server.StateDone {
		t.Fatalf("state %s: %s", st.State, st.Error)
	}
	if st.Seed != 3 {
		t.Fatalf("status echoes seed %d, want 3", st.Seed)
	}
	got, err := c.Result(ctx, st.ID, "json")
	if err != nil {
		t.Fatal(err)
	}

	lst, err := harness.NewRunner(hcfg).RunSeeded("bfs", secmem.Plutus(0), 3)
	if err != nil {
		t.Fatal(err)
	}
	var want strings.Builder
	if err := harness.WriteRunJSON(&want, lst); err != nil {
		t.Fatal(err)
	}
	if string(got) != want.String() {
		t.Errorf("seeded remote result differs from local:\n got: %q\nwant: %q", got, want.String())
	}

	// Seed 3 and seed 0 must be distinct jobs, not dedup'd onto each other.
	st0, err := c.Run(ctx, server.RunRequest{Benchmark: "bfs", Scheme: "plutus"})
	if err != nil {
		t.Fatal(err)
	}
	if st0.ID == st.ID {
		t.Error("seed 0 deduped onto the seed-3 job")
	}
}

// TestSnapshotEndpoints: the migration surface — GET 404s while no
// PLUTSNAP exists, PUT installs one at the cell's snapshot path (after
// container validation), GET returns those very bytes, and garbage is
// refused.
func TestSnapshotEndpoints(t *testing.T) {
	dir := t.TempDir()
	ckptDir := filepath.Join(dir, "ckpt")
	if err := os.MkdirAll(ckptDir, 0o755); err != nil {
		t.Fatal(err)
	}
	hcfg := harness.Config{
		MaxInstructions: 2000,
		Benchmarks:      []string{"bfs"},
		Parallelism:     1,
		CheckpointEvery: 500,
		CheckpointDir:   ckptDir,
		Resume:          true,
	}
	runner := harness.NewRunner(hcfg)
	_, c := startServer(t, server.Config{
		Backend:         runner,
		Workers:         1,
		QueueDepth:      2,
		MaxInstructions: hcfg.MaxInstructions,
	}, nil)
	ctx := context.Background()

	if _, err := c.Snapshot(ctx, "bfs", "plutus", 5); !errors.Is(err, client.ErrNoSnapshot) {
		t.Fatalf("err = %v, want ErrNoSnapshot", err)
	}

	// Manufacture a real parked snapshot: run with a context that
	// cancels at the first checkpoint, same trick the harness
	// checkpoint tests use.
	sc := secmem.Plutus(0)
	if _, err := runner.RunSeededContext(newCancelInFlight(), "bfs", sc, 5); err == nil {
		t.Fatal("expected preemption error")
	}
	snap, err := c.Snapshot(ctx, "bfs", "plutus", 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap) == 0 {
		t.Fatal("empty snapshot")
	}

	// Migrate it to a different cell (seed 6) as a coordinator would on
	// a dead worker, and read it back byte-identically.
	if err := c.PutSnapshot(ctx, "bfs", "plutus", 6, snap); err != nil {
		t.Fatal(err)
	}
	back, err := c.Snapshot(ctx, "bfs", "plutus", 6)
	if err != nil {
		t.Fatal(err)
	}
	if string(back) != string(snap) {
		t.Error("snapshot round-trip is not byte-identical")
	}

	if err := c.PutSnapshot(ctx, "bfs", "plutus", 7, []byte("not a snapshot")); err == nil {
		t.Error("garbage PUT accepted")
	}

	// Unknown names are client errors, not file lookups.
	resp, err := http.Get(c.BaseURL() + "/v1/snapshots?benchmark=nope&scheme=plutus")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown benchmark: status %d, want 400", resp.StatusCode)
	}
}

// TestHostileSnapshotFailsCleanly: a PLUTSNAP whose container is intact
// (valid CRCs) but whose workload section claims 2^32−1 cursor entries
// is accepted by PUT /v1/snapshots, which checks only the container.
// The next submit of that cell must settle failed with a corrupt-snapshot
// error, and the daemon must keep serving; it used to die allocating
// 34 GB for the cursor.
func TestHostileSnapshotFailsCleanly(t *testing.T) {
	ckptDir := filepath.Join(t.TempDir(), "ckpt")
	if err := os.MkdirAll(ckptDir, 0o755); err != nil {
		t.Fatal(err)
	}
	hcfg := harness.Config{
		MaxInstructions: 2000,
		Benchmarks:      []string{"bfs"},
		Parallelism:     1,
		CheckpointEvery: 500,
		CheckpointDir:   ckptDir,
		Resume:          true,
	}
	runner := harness.NewRunner(hcfg)
	_, c := startServer(t, server.Config{
		Backend:         runner,
		Workers:         1,
		QueueDepth:      2,
		MaxInstructions: hcfg.MaxInstructions,
	}, nil)
	ctx := context.Background()

	// A real parked snapshot of the cell, with its workload section
	// replaced and the container re-encoded.
	if _, err := runner.RunSeededContext(newCancelInFlight(), "bfs", secmem.Plutus(0), 5); err == nil {
		t.Fatal("expected preemption error")
	}
	snap, err := c.Snapshot(ctx, "bfs", "plutus", 5)
	if err != nil {
		t.Fatal(err)
	}
	f, err := checkpoint.Decode(snap)
	if err != nil {
		t.Fatal(err)
	}
	hostile := &checkpoint.File{}
	for _, s := range f.Sections() {
		if s.Name == "workload" {
			s.Payload = binary.LittleEndian.AppendUint32(nil, 0xFFFFFFFF)
		}
		hostile.Add(s.Name, s.Payload)
	}
	if err := c.PutSnapshot(ctx, "bfs", "plutus", 5, hostile.Encode()); err != nil {
		t.Fatalf("PUT of an intact container refused: %v", err)
	}

	st, err := c.Submit(ctx, server.RunRequest{Benchmark: "bfs", Scheme: "plutus", Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if st, err = c.Wait(ctx, st.ID); err != nil {
		t.Fatal(err)
	}
	if st.State != server.StateFailed || !strings.Contains(st.Error, "snapshot corrupt") {
		t.Fatalf("run settled %s (%q), want failed with a corrupt-snapshot error", st.State, st.Error)
	}
	if err := c.Health(ctx); err != nil {
		t.Fatalf("daemon unhealthy after the hostile resume: %v", err)
	}
}

// TestTraceAddressPastProtectedSpaceFailsCleanly: a submitted trace
// that addresses memory past the protected space settles failed with
// the simulator's error, and the daemon stays healthy.
func TestTraceAddressPastProtectedSpaceFailsCleanly(t *testing.T) {
	var buf bytes.Buffer
	tw, err := trace.NewWriter(&buf, trace.Header{Warps: 2})
	if err != nil {
		t.Fatal(err)
	}
	tw.Append(trace.Record{Warp: 0, Kind: gpusim.Load, Addrs: []geom.Addr{3 << 30}})
	tw.Append(trace.Record{Warp: 1, Kind: gpusim.Store, Addrs: []geom.Addr{5 << 30}})
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "oob.pltr")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	bench := "trace:" + path
	hcfg := harness.Config{MaxInstructions: 100, Benchmarks: []string{bench}, Parallelism: 1}
	_, c := startServer(t, server.Config{
		Backend:         harness.NewRunner(hcfg),
		Workers:         1,
		QueueDepth:      2,
		MaxInstructions: hcfg.MaxInstructions,
	}, nil)
	ctx := context.Background()
	st, err := c.Submit(ctx, server.RunRequest{Benchmark: bench, Scheme: "plutus"})
	if err != nil {
		t.Fatal(err)
	}
	if st, err = c.Wait(ctx, st.ID); err != nil {
		t.Fatal(err)
	}
	if st.State != server.StateFailed || !strings.Contains(st.Error, "past the protected space") {
		t.Fatalf("run settled %s (%q), want failed with an address past the protected space", st.State, st.Error)
	}
	if err := c.Health(ctx); err != nil {
		t.Fatalf("daemon unhealthy after the out-of-range trace: %v", err)
	}
}
