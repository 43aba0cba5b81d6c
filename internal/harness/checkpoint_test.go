package harness

import (
	"bytes"
	"context"
	"errors"
	"os"
	"sync/atomic"
	"testing"

	"github.com/plutus-gpu/plutus/internal/checkpoint"
	"github.com/plutus-gpu/plutus/internal/secmem"
)

// cancelInFlight is a context that reports cancellation only once the
// run is under way: RunSeededContext's entry check (the first Err call) sees
// nil, and the checkpoint sink's check at the first epoch boundary sees
// context.Canceled — a deterministic stand-in for a preemption landing
// mid-run.
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

// ckptHarnessCfg returns a small checkpointed sweep configuration.
func ckptHarnessCfg(dir string, resume bool) Config {
	return Config{
		MaxInstructions: 6000,
		Benchmarks:      []string{"stream"},
		CheckpointEvery: 500,
		CheckpointDir:   dir,
		Resume:          resume,
	}
}

// TestHarnessResumeByteIdentical is the end-to-end replay guarantee one
// level up from gpusim: a run preempted at its first checkpoint and then
// resumed by a fresh Runner renders byte-identical JSON, CSV, and text
// reports to an uninterrupted run at the same cadence.
func TestHarnessResumeByteIdentical(t *testing.T) {
	sc := secmem.Plutus(0)
	render := func(r *Runner) (string, string, string) {
		st, err := r.Run("stream", sc)
		if err != nil {
			t.Fatal(err)
		}
		var js bytes.Buffer
		if err := WriteRunJSON(&js, st); err != nil {
			t.Fatal(err)
		}
		var csv bytes.Buffer
		if err := WriteRunCSV(&csv, st); err != nil {
			t.Fatal(err)
		}
		return js.String(), csv.String(), Report(st, sc)
	}

	refJS, refCSV, refTxt := render(NewRunner(ckptHarnessCfg(t.TempDir(), false)))

	// Interrupted lineage: preempt at the first checkpoint...
	dir := t.TempDir()
	preempted := NewRunner(ckptHarnessCfg(dir, false))
	if _, err := preempted.RunSeededContext(newCancelInFlight(), "stream", sc, 0); !errors.Is(err, checkpoint.ErrPreempted) {
		t.Fatalf("err = %v, want ErrPreempted", err)
	}
	if _, err := os.Stat(preempted.SnapshotPathSeeded("stream", sc, 0)); err != nil {
		t.Fatalf("no snapshot left behind: %v", err)
	}

	// ...and resume with a fresh Runner, as a restarted process would.
	resJS, resCSV, resTxt := render(NewRunner(ckptHarnessCfg(dir, true)))
	if resJS != refJS {
		t.Errorf("JSON reports differ:\nref:     %s\nresumed: %s", refJS, resJS)
	}
	if resCSV != refCSV {
		t.Errorf("CSV reports differ:\nref:     %s\nresumed: %s", refCSV, resCSV)
	}
	if resTxt != refTxt {
		t.Errorf("text reports differ:\nref:\n%s\nresumed:\n%s", refTxt, resTxt)
	}

	// Completion must have retired the snapshot.
	resumed := NewRunner(ckptHarnessCfg(dir, true))
	if _, err := resumed.Run("stream", sc); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(resumed.SnapshotPathSeeded("stream", sc, 0)); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("snapshot still present after completed run: %v", err)
	}
}

// TestPreemptedRetrySameRunner: after a preemption the cache entry is
// dropped, so a retry on the same Runner resumes the parked run and
// matches the uninterrupted result.
func TestPreemptedRetrySameRunner(t *testing.T) {
	sc := secmem.PSSM(0)
	ref, err := NewRunner(ckptHarnessCfg(t.TempDir(), false)).Run("bfs", sc)
	if err != nil {
		t.Fatal(err)
	}

	r := NewRunner(ckptHarnessCfg(t.TempDir(), true))
	if _, err := r.RunSeededContext(newCancelInFlight(), "bfs", sc, 0); !errors.Is(err, checkpoint.ErrPreempted) {
		t.Fatalf("err = %v, want ErrPreempted", err)
	}
	st, err := r.Run("bfs", sc)
	if err != nil {
		t.Fatal(err)
	}
	if st.Cycles != ref.Cycles || st.Instructions != ref.Instructions || st.Traffic.Total() != ref.Traffic.Total() {
		t.Fatalf("retried run diverges: got (%d cyc, %d inst, %d B), want (%d, %d, %d)",
			st.Cycles, st.Instructions, st.Traffic.Total(),
			ref.Cycles, ref.Instructions, ref.Traffic.Total())
	}
	m := r.Metrics()
	if m.Executions != 2 {
		t.Fatalf("executions = %d, want 2 (preempted + resumed)", m.Executions)
	}
}

// TestCheckpointEveryRequiresDir: misconfiguration is a typed failure,
// not a silent uncheckpointed run.
func TestCheckpointEveryRequiresDir(t *testing.T) {
	r := NewRunner(Config{Benchmarks: []string{"stream"}, CheckpointEvery: 1000})
	if _, err := r.Run("stream", secmem.Baseline(0)); err == nil {
		t.Fatal("run with CheckpointEvery but no CheckpointDir succeeded")
	}
}
