package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"github.com/plutus-gpu/plutus/internal/checkpoint"
	"github.com/plutus-gpu/plutus/internal/gpusim"
	"github.com/plutus-gpu/plutus/internal/secmem"
	"github.com/plutus-gpu/plutus/internal/stats"
	"github.com/plutus-gpu/plutus/internal/trace"
	"github.com/plutus-gpu/plutus/internal/workload"
)

const (
	resumeScenario = "scn-multitenant"
	// resumeCadence is the snapshot interval in simulated cycles.
	resumeCadence = 2000
)

// traceResume captures a seeded trace in set-up; each timed pass replays
// it under nosec with a snapshot every resumeCadence cycles, restores
// every snapshot, and runs a fixed subset of them to completion.
type traceResume struct {
	seed    uint64
	cfg     gpusim.Config
	path    string
	capture *stats.Stats
}

func newTraceResume(seed uint64) bench { return &traceResume{seed: seed} }

func (t *traceResume) setup(ctx context.Context, e *env) error {
	sc, err := secmem.ByName("nosec", protectedBytes)
	if err != nil {
		return err
	}
	t.cfg = gpusim.ScaledConfig(sc)
	t.cfg.Sec.ProtectedBytes = protectedBytes
	// The capture drains at the same cadence as the replay, so the two
	// runs' statistics agree.
	t.cfg.CheckpointEvery = resumeCadence
	wl, err := workload.GetSeeded(resumeScenario, t.seed)
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp(e.dir, "resume")
	if err != nil {
		return err
	}
	t.path = filepath.Join(dir, "capture.pltr")
	f, err := os.Create(t.path)
	if err != nil {
		return err
	}
	err = e.tr.span(ctx, "trace.Capture", resumeScenario, func(context.Context) error {
		t.capture, err = trace.Capture(t.cfg, wl, f)
		return err
	})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("capture %s: %w", resumeScenario, err)
	}
	_, err = trace.OpenReplay("replay", t.path)
	return err
}

// open opens the replay, wrapped to time Next when traced.
func (t *traceResume) open(ctx context.Context, e *env) (gpusim.Workload, *trace.Replay, error) {
	var r *trace.Replay
	err := e.tr.span(ctx, "trace.OpenReplay", resumeScenario, func(context.Context) error {
		var err error
		r, err = trace.OpenReplay("replay", t.path)
		return err
	})
	if err != nil || e.tr == nil {
		return r, r, err
	}
	return &timedReplay{Replay: r, tr: e.tr}, r, nil
}

// timedReplay times the replay's Next for the traced run.
type timedReplay struct {
	*trace.Replay
	tr *tracer
}

func (r *timedReplay) Next(w int) (gpusim.Inst, bool) {
	t0 := time.Now()
	inst, ok := r.Replay.Next(w)
	r.tr.nextNanos.Add(int64(time.Since(t0)))
	r.tr.nextCalls.Add(1)
	return inst, ok
}

// snapshot is one snapshot written by the replay.
type snapshot struct {
	path   string
	issued uint64 // warp-instructions issued before it
	bytes  int
}

func (t *traceResume) pass(ctx context.Context, e *env, p int, ph *phase) {
	dir := filepath.Join(filepath.Dir(t.path), fmt.Sprintf("pass%d", p))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		ph.fail("snapshot dir: %v", err)
		return
	}
	defer os.RemoveAll(dir)

	// Replay with snapshots.
	wl, replay, err := t.open(ctx, e)
	ph.attempt(1)
	if err != nil {
		ph.fail("open replay: %v", err)
		return
	}
	g, err := gpusim.New(t.cfg, wl)
	if err != nil {
		ph.fail("replay: %v", err)
		return
	}
	var snaps []snapshot
	var writes []time.Duration
	sink := func(cycle uint64, data []byte) error {
		path := filepath.Join(dir, fmt.Sprintf("snap%04d.ckpt", len(snaps)))
		t0 := time.Now()
		err := e.tr.span(ctx, "checkpoint.WriteFileAtomic", resumeScenario, func(context.Context) error {
			return checkpoint.WriteFileAtomic(path, data)
		})
		writes = append(writes, time.Since(t0))
		var issued uint64
		for _, c := range replay.Cursor() {
			issued += c
		}
		snaps = append(snaps, snapshot{path, issued, len(data)})
		return err
	}
	var ref *stats.Stats
	err = e.tr.span(ctx, "gpusim.RunWithCheckpoints", "replay/nosec/"+fmt.Sprint(t.seed), func(context.Context) error {
		ref, err = g.RunWithCheckpoints(sink)
		return err
	})
	if err != nil {
		ph.fail("replay: %v", err)
		return
	}
	ph.retired(ref.Instructions)
	ph.result(p, ref)
	ph.digest(ctx, e, "replay", ref)
	a, b := *t.capture, *ref
	a.Benchmark, b.Benchmark = "", ""
	if a != b {
		ph.fail("replay statistics differ from the capture's")
	}

	// Restore every snapshot; run a fixed subset to completion.
	var decodes []time.Duration
	var snapBytes int
	for i, s := range snaps {
		snapBytes += s.bytes
		t0 := time.Now()
		g, dec, err := t.resume(ctx, e, s)
		ph.op(time.Since(t0))
		decodes = append(decodes, dec)
		if err != nil {
			ph.fail("resume %s: %v", filepath.Base(s.path), err)
			continue
		}
		if !inSubset(i, len(snaps)) {
			continue
		}
		ph.attempt(1)
		cell := fmt.Sprintf("resume%d", i)
		var st *stats.Stats
		err = e.tr.span(ctx, "gpusim.RunWithCheckpoints", cell+"/nosec/"+fmt.Sprint(t.seed), func(context.Context) error {
			st, err = g.RunWithCheckpoints(nil)
			return err
		})
		if err != nil {
			ph.fail("%s: %v", cell, err)
			continue
		}
		ph.retired(st.Instructions - s.issued)
		if *st != *ref {
			ph.fail("%s: resumed run differs from the uninterrupted replay", cell)
		}
		ph.digest(ctx, e, cell, st)
	}
	if p == 0 {
		ph.setLayer("checkpoint.snapshots", float64(len(snaps)))
		ph.setLayer("checkpoint.snapshot_mb", float64(snapBytes)/1e6)
		ph.setLayer("trace.max_resident_records", float64(replay.MaxResidentRecords()))
	}
	ph.mu.Lock()
	ph.extra["resume_ms"] = metric{ms(percentile(ph.ops, 0.5)), "ms"}
	ph.extra["resume_p90_ms"] = metric{ms(percentile(ph.ops, 0.9)), "ms"}
	ph.extra["checkpoint.write_ms"] = metric{ms(percentile(writes, 0.5)), "ms"}
	ph.extra["checkpoint.decode_ms"] = metric{ms(percentile(decodes, 0.5)), "ms"}
	ph.extra["snapshots_per_pass"] = metric{float64(len(snaps)), "count"}
	ph.mu.Unlock()
}

// inSubset picks the snapshots resumed to completion: a quarter, half
// and three quarters of the way through the replay.
func inSubset(i, n int) bool {
	return n > 0 && (i == n/4 || i == n/2 || i == 3*n/4)
}

// resume reads, decodes and restores one snapshot into a fresh GPU over
// a fresh replay. dec is the time spent in checkpoint.Decode.
func (t *traceResume) resume(ctx context.Context, e *env, s snapshot) (*gpusim.GPU, time.Duration, error) {
	data, err := os.ReadFile(s.path)
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	err = e.tr.span(ctx, "checkpoint.Decode", resumeScenario, func(context.Context) error {
		f, err := checkpoint.Decode(data)
		if err == nil && len(f.Sections()) == 0 {
			err = fmt.Errorf("snapshot has no sections")
		}
		return err
	})
	dec := time.Since(t0)
	if err != nil {
		return nil, dec, err
	}
	wl, _, err := t.open(ctx, e)
	if err != nil {
		return nil, dec, err
	}
	var g *gpusim.GPU
	err = e.tr.span(ctx, "gpusim.ResumeSnapshot", resumeScenario, func(context.Context) error {
		g, err = gpusim.ResumeSnapshot(t.cfg, wl, data)
		return err
	})
	return g, dec, err
}

func (t *traceResume) finish(_ context.Context, e *env, ph *phase) {
	if e.tr == nil {
		return
	}
	if n := e.tr.nextCalls.Load(); n > 0 {
		ph.extra["trace.next_ns"] = metric{float64(e.tr.nextNanos.Load()) / float64(n), "ns"}
	}
}

func (t *traceResume) close() {
	if t.path != "" {
		os.RemoveAll(filepath.Dir(t.path))
	}
}
