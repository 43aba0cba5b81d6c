// Tests for plutusd's crash-recovery surface: job records persisted to
// -state-dir survive a daemon restart (finished jobs keep serving their
// results; unfinished jobs are re-enqueued), and a checkpointing backend
// that parks a run with ErrPreempted sees the job requeued rather than
// failed.
package server_test

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"github.com/plutus-gpu/plutus/internal/checkpoint"
	"github.com/plutus-gpu/plutus/internal/harness"
	"github.com/plutus-gpu/plutus/internal/secmem"
	"github.com/plutus-gpu/plutus/internal/server"
	"github.com/plutus-gpu/plutus/internal/stats"
)

// TestResultsSurviveRestart: a finished job's result is served by a
// restarted daemon from its persisted record — without re-simulating —
// and fresh ids continue past the recovered ones instead of colliding.
func TestResultsSurviveRestart(t *testing.T) {
	stateDir := t.TempDir()
	hcfg := harness.Config{
		MaxInstructions: 3000,
		Benchmarks:      []string{"bfs"},
	}
	scfg := server.Config{
		Workers:    1,
		QueueDepth: 2,
		StateDir:   stateDir,
	}
	ctx := context.Background()

	scfg.Backend = harness.NewRunner(hcfg)
	_, c1 := startServer(t, scfg, nil)
	st, err := c1.Run(ctx, server.RunRequest{Benchmark: "bfs", Scheme: "plutus"})
	if err != nil {
		t.Fatal(err)
	}
	if st.State != server.StateDone {
		t.Fatalf("run finished in state %q: %s", st.State, st.Error)
	}
	want, err := c1.Result(ctx, st.ID, "json")
	if err != nil {
		t.Fatal(err)
	}

	// "Restart": a new server over the same state dir, fresh backend.
	scfg.Backend = harness.NewRunner(hcfg)
	_, c2 := startServer(t, scfg, nil)
	recovered, err := c2.Status(ctx, st.ID)
	if err != nil {
		t.Fatalf("recovered job not found after restart: %v", err)
	}
	if recovered.State != server.StateDone {
		t.Fatalf("recovered job state = %q, want done", recovered.State)
	}
	got, err := c2.Result(ctx, st.ID, "json")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("recovered result differs from original:\n got: %s\nwant: %s", got, want)
	}
	sz, err := c2.Statsz(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if sz.Cache != nil && sz.Cache.Executions != 0 {
		t.Errorf("restarted daemon re-simulated %d times to serve a persisted result", sz.Cache.Executions)
	}

	// A new submission must not reuse the recovered id.
	st2, err := c2.Run(ctx, server.RunRequest{Benchmark: "bfs", Scheme: "pssm"})
	if err != nil {
		t.Fatal(err)
	}
	if st2.ID == st.ID {
		t.Errorf("fresh id %s collides with recovered job", st2.ID)
	}
	if st2.ID != "run-000002" {
		t.Errorf("fresh id = %s, want run-000002 (continuing past recovered run-000001)", st2.ID)
	}
}

// TestBootReenqueuesUnfinishedJobs: jobs that were queued or running
// when the daemon died (their disk records say "queued") are re-run on
// boot and settle under their original ids.
func TestBootReenqueuesUnfinishedJobs(t *testing.T) {
	fb := newFakeBackend()
	liveDir := t.TempDir()
	_, c1 := startServer(t, server.Config{
		Backend: fb, Workers: 1, QueueDepth: 2, StateDir: liveDir,
	}, fb)
	ctx := context.Background()

	// One job running, one queued — both persisted as unfinished.
	first, err := c1.Submit(ctx, server.RunRequest{Benchmark: "bfs", Scheme: "pssm"})
	if err != nil {
		t.Fatal(err)
	}
	waitStarted(t, fb)
	second, err := c1.Submit(ctx, server.RunRequest{Benchmark: "hotspot", Scheme: "pssm"})
	if err != nil {
		t.Fatal(err)
	}

	// Capture the state dir as a SIGKILL would have left it: both records
	// on disk, neither settled.
	crashDir := t.TempDir()
	ents, err := os.ReadDir(liveDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 2 {
		t.Fatalf("persisted %d records mid-flight, want 2", len(ents))
	}
	for _, e := range ents {
		blob, err := os.ReadFile(filepath.Join(liveDir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(crashDir, e.Name()), blob, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	// Boot a recovered daemon from the crash image.
	fb2 := newFakeBackend()
	close(fb2.release) // recovered runs finish immediately
	_, c2 := startServer(t, server.Config{
		Backend: fb2, Workers: 1, QueueDepth: 2, StateDir: crashDir,
	}, nil)
	for _, id := range []string{first.ID, second.ID} {
		final, err := c2.Wait(ctx, id)
		if err != nil {
			t.Fatalf("recovered job %s: %v", id, err)
		}
		if final.State != server.StateDone {
			t.Fatalf("recovered job %s settled %q: %s", id, final.State, final.Error)
		}
	}
	if got := fb2.runCount(); got != 2 {
		t.Errorf("recovered daemon ran %d jobs, want 2", got)
	}
	st, err := c2.Submit(ctx, server.RunRequest{Benchmark: "kmeans", Scheme: "pssm"})
	if err != nil {
		t.Fatal(err)
	}
	if st.ID != "run-000003" {
		t.Errorf("post-recovery id = %s, want run-000003", st.ID)
	}
}

// preemptBackend parks each job's first run with ErrPreempted — as a
// checkpointing harness does when its slice context expires — and
// completes it on the retry. When gate is set, first slices block on it
// before parking, so a test can line up queue state deterministically.
type preemptBackend struct {
	mu    sync.Mutex
	calls map[string]int
	gate  chan struct{}
}

func (p *preemptBackend) RunSeededContext(_ context.Context, bench string, sc secmem.Config, _ uint64) (*stats.Stats, error) {
	p.mu.Lock()
	if p.calls == nil {
		p.calls = make(map[string]int)
	}
	p.calls[bench]++
	first := p.calls[bench] == 1
	gate := p.gate
	p.mu.Unlock()
	if first {
		if gate != nil {
			<-gate
		}
		return nil, fmt.Errorf("fake: parked at cycle 1000: %w", checkpoint.ErrPreempted)
	}
	return &stats.Stats{Benchmark: bench, Scheme: sc.Scheme, Instructions: 1, Cycles: 1}, nil
}

// TestPreemptedJobIsRequeuedAndFinishes: a run parked at its slice
// boundary cycles back through the queue (visible as a second queued
// event) and settles done on its next slice — it must not fail.
func TestPreemptedJobIsRequeuedAndFinishes(t *testing.T) {
	pb := &preemptBackend{}
	_, c := startServer(t, server.Config{
		Backend: pb, Workers: 1, QueueDepth: 4, PreemptSlice: 1, // any nonzero slice
	}, nil)
	ctx := context.Background()

	st, err := c.Run(ctx, server.RunRequest{Benchmark: "bfs", Scheme: "pssm"})
	if err != nil {
		t.Fatal(err)
	}
	if st.State != server.StateDone {
		t.Fatalf("preempted job settled %q: %s", st.State, st.Error)
	}
	var evs []server.Event
	if err := c.Events(ctx, st.ID, func(ev server.Event) { evs = append(evs, ev) }); err != nil {
		t.Fatal(err)
	}
	var states []server.State
	for _, ev := range evs {
		states = append(states, ev.State)
	}
	want := []server.State{
		server.StateQueued, server.StateRunning, // first slice
		server.StateQueued, server.StateRunning, // requeued after preemption
		server.StateDone,
	}
	if len(states) != len(want) {
		t.Fatalf("lifecycle = %v, want %v", states, want)
	}
	for i := range want {
		if states[i] != want[i] {
			t.Fatalf("lifecycle = %v, want %v", states, want)
		}
	}
	sz, err := c.Statsz(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if sz.Completed != 1 || sz.Failed != 0 || sz.InFlight != 0 || sz.QueueDepth != 0 {
		t.Errorf("statsz = completed %d failed %d inflight %d queued %d, want 1/0/0/0",
			sz.Completed, sz.Failed, sz.InFlight, sz.QueueDepth)
	}
}

// TestPreemptedJobRunsInlineWhenQueueFull: when the queue has no room,
// a preempted job keeps its worker and runs its next slice immediately
// instead of deadlocking or failing; the waiting job still runs after.
func TestPreemptedJobRunsInlineWhenQueueFull(t *testing.T) {
	pb := &preemptBackend{gate: make(chan struct{})}
	_, c := startServer(t, server.Config{
		Backend: pb, Workers: 1, QueueDepth: 1, PreemptSlice: 1,
	}, nil)
	ctx := context.Background()

	// Saturate: the first bfs slice holds at the gate until a second
	// distinct job occupies the depth-1 queue, so when bfs parks, the
	// requeue path is closed and the job must continue inline.
	first, err := c.Submit(ctx, server.RunRequest{Benchmark: "bfs", Scheme: "pssm"})
	if err != nil {
		t.Fatal(err)
	}
	second, err := c.Submit(ctx, server.RunRequest{Benchmark: "hotspot", Scheme: "pssm"})
	if err != nil {
		t.Fatal(err)
	}
	close(pb.gate) // bfs now parks into a full queue
	for _, id := range []string{first.ID, second.ID} {
		final, err := c.Wait(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if final.State != server.StateDone {
			t.Fatalf("job %s settled %q: %s", id, final.State, final.Error)
		}
	}
	pb.mu.Lock()
	defer pb.mu.Unlock()
	if pb.calls["bfs"] != 2 || pb.calls["hotspot"] != 2 {
		t.Errorf("slices = bfs %d / hotspot %d, want 2 / 2", pb.calls["bfs"], pb.calls["hotspot"])
	}
}
