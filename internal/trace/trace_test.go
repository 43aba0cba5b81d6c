package trace_test

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/plutus-gpu/plutus/internal/checkpoint"
	"github.com/plutus-gpu/plutus/internal/geom"
	"github.com/plutus-gpu/plutus/internal/gpusim"
	"github.com/plutus-gpu/plutus/internal/secmem"
	"github.com/plutus-gpu/plutus/internal/stats"
	"github.com/plutus-gpu/plutus/internal/trace"
	"github.com/plutus-gpu/plutus/internal/workload"
)

func testConfig(insts uint64) gpusim.Config {
	cfg := gpusim.ScaledConfig(secmem.Plutus(0))
	cfg.Sec.ProtectedBytes = 128 << 20
	cfg.MaxInstructions = insts
	return cfg
}

// captureFile captures bench under cfg into a temp trace file and
// returns the path plus the capture run's stats.
func captureFile(t *testing.T, bench string, cfg gpusim.Config) (string, *stats.Stats) {
	t.Helper()
	wl, err := workload.Get(bench)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	ref, err := trace.Capture(cfg, wl, &buf)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "cap.pltr")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path, ref
}

// normalize blanks the benchmark name, the one field that legitimately
// differs between a live run and its trace replay.
func normalize(st *stats.Stats) stats.Stats {
	out := *st
	out.Benchmark = ""
	return out
}

// TestCaptureReplayByteIdentical is the replay guarantee: replaying a
// capture under the same configuration reproduces the run's statistics
// exactly, sequentially and on four workers, for a suite
// benchmark and for scenario-corpus workloads.
func TestCaptureReplayByteIdentical(t *testing.T) {
	for _, bench := range []string{"bfs", "scn-phase", "scn-attackload"} {
		t.Run(bench, func(t *testing.T) {
			cfg := testConfig(3000)
			path, ref := captureFile(t, bench, cfg)
			for _, workers := range []int{1, 4} {
				rcfg := cfg
				rcfg.Workers = workers
				wl, err := workload.Get("trace:" + path)
				if err != nil {
					t.Fatal(err)
				}
				g, err := gpusim.New(rcfg, wl)
				if err != nil {
					t.Fatal(err)
				}
				st := g.Run()
				if normalize(st) != normalize(ref) {
					t.Errorf("workers=%d: replay diverged from capture:\nref: %+v\ngot: %+v",
						workers, normalize(ref), normalize(st))
				}
			}
		})
	}
}

// TestReplayIsRecapturable: capturing a replay reproduces the run and
// the value model — second-generation traces are as good as first.
func TestReplayIsRecapturable(t *testing.T) {
	cfg := testConfig(2000)
	path, ref := captureFile(t, "scn-multitenant", cfg)
	path2, ref2 := captureFile(t, "trace:"+path, cfg)
	if normalize(ref2) != normalize(ref) {
		t.Fatalf("second-generation capture diverged:\nref: %+v\ngot: %+v",
			normalize(ref), normalize(ref2))
	}
	a, err := trace.OpenReplay("a", path)
	if err != nil {
		t.Fatal(err)
	}
	b, err := trace.OpenReplay("b", path2)
	if err != nil {
		t.Fatal(err)
	}
	if a.Warps() != b.Warps() || a.ValueModel() != b.ValueModel() || a.TotalRecords() != b.TotalRecords() {
		t.Fatalf("recapture changed trace shape: %d/%d warps, %d/%d records",
			a.Warps(), b.Warps(), a.TotalRecords(), b.TotalRecords())
	}
}

// writeSynthetic builds a trace with a tiny chunk target so a short
// stream still spans many chunks per warp.
func writeSynthetic(t *testing.T, warps, perWarp, chunkRecords int) string {
	t.Helper()
	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf, trace.Header{Warps: warps, ChunkRecords: chunkRecords})
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < perWarp; step++ {
		for wi := 0; wi < warps; wi++ {
			w.Append(syntheticRecord(wi, step))
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "synthetic.pltr")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func syntheticRecord(w, step int) trace.Record {
	switch step % 3 {
	case 0:
		return trace.Record{Warp: uint32(w), Kind: gpusim.Compute, Cycles: uint16(1 + step%7)}
	case 1:
		return trace.Record{Warp: uint32(w), Kind: gpusim.Load,
			Addrs: []geom.Addr{geom.Addr(step * 32), geom.Addr(step*32 + 4)}}
	default:
		return trace.Record{Warp: uint32(w), Kind: gpusim.Store,
			Addrs: []geom.Addr{geom.Addr(w*1024 + step*4)}}
	}
}

// TestStreamingReplayBounded pins the bounded-memory guarantee: a
// replay never holds more than one chunk of records per warp, however
// long the trace.
func TestStreamingReplayBounded(t *testing.T) {
	const (
		warps        = 4
		perWarp      = 1000
		chunkRecords = 16
	)
	path := writeSynthetic(t, warps, perWarp, chunkRecords)
	rep, err := trace.OpenReplay("synthetic", path)
	if err != nil {
		t.Fatal(err)
	}
	if rep.TotalRecords() != warps*perWarp {
		t.Fatalf("TotalRecords = %d, want %d", rep.TotalRecords(), warps*perWarp)
	}
	n := 0
	for step := 0; step < perWarp; step++ {
		for w := 0; w < warps; w++ {
			inst, ok := rep.Next(w)
			if !ok {
				t.Fatalf("warp %d retired early at step %d", w, step)
			}
			want := syntheticRecord(w, step).Inst()
			if inst.Kind != want.Kind || inst.Cycles != want.Cycles || len(inst.Addrs) != len(want.Addrs) {
				t.Fatalf("warp %d step %d: got %+v, want %+v", w, step, inst, want)
			}
			n++
		}
	}
	for w := 0; w < warps; w++ {
		if _, ok := rep.Next(w); ok {
			t.Fatalf("warp %d did not retire after %d records", w, perWarp)
		}
	}
	if max := rep.MaxResidentRecords(); max > warps*chunkRecords {
		t.Errorf("resident high-water %d records exceeds one chunk per warp (%d)",
			max, warps*chunkRecords)
	} else if max >= n {
		t.Errorf("resident high-water %d of %d records: trace was fully materialized", max, n)
	}
}

// TestReplayCursorRoundTrip: a cursor taken mid-replay restores to the
// exact same remaining stream on a fresh Replay, including positions in
// the middle of chunks and at warp ends.
func TestReplayCursorRoundTrip(t *testing.T) {
	path := writeSynthetic(t, 3, 200, 16)
	a, err := trace.OpenReplay("synthetic", path)
	if err != nil {
		t.Fatal(err)
	}
	// Advance warps unevenly: mid-chunk, chunk-aligned, fully drained.
	for i := 0; i < 37; i++ {
		a.Next(0)
	}
	for i := 0; i < 64; i++ {
		a.Next(1)
	}
	for i := 0; i < 200; i++ {
		a.Next(2)
	}
	cur := a.Cursor()
	if want := []uint64{37, 64, 200}; fmt.Sprint(cur) != fmt.Sprint(want) {
		t.Fatalf("cursor = %v, want %v", cur, want)
	}

	b, err := trace.OpenReplay("synthetic", path)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.RestoreCursor(cur); err != nil {
		t.Fatal(err)
	}
	for w := 0; w < 3; w++ {
		for {
			ia, oka := a.Next(w)
			ib, okb := b.Next(w)
			if oka != okb {
				t.Fatalf("warp %d: restored stream length diverges", w)
			}
			if !oka {
				break
			}
			if ia.Kind != ib.Kind || ia.Cycles != ib.Cycles || len(ia.Addrs) != len(ib.Addrs) {
				t.Fatalf("warp %d: restored stream content diverges: %+v vs %+v", w, ia, ib)
			}
			for j := range ia.Addrs {
				if ia.Addrs[j] != ib.Addrs[j] {
					t.Fatalf("warp %d: restored address diverges", w)
				}
			}
		}
	}

	if err := b.RestoreCursor([]uint64{0, 0}); err == nil {
		t.Error("short cursor accepted")
	}
	if err := b.RestoreCursor([]uint64{0, 0, 201}); err == nil {
		t.Error("out-of-range cursor accepted")
	}
}

// TestTraceCheckpointResume: a traced run preempted at a checkpoint and
// resumed from its snapshot finishes byte-identical to an uninterrupted
// run at the same cadence — the trace workload's cursor is part of the
// snapshot like any suite benchmark's.
func TestTraceCheckpointResume(t *testing.T) {
	cfg := testConfig(2500)
	path, _ := captureFile(t, "scn-dnn-infer", cfg)
	cfg.CheckpointEvery = 400

	run := func(g *gpusim.GPU) *stats.Stats {
		st, err := g.RunWithCheckpoints(nil)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	newGPU := func() *gpusim.GPU {
		wl, err := workload.Get("trace:" + path)
		if err != nil {
			t.Fatal(err)
		}
		g, err := gpusim.New(cfg, wl)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}

	ref := run(newGPU())

	var snap []byte
	preempt := errors.New("park")
	_, err := newGPU().RunWithCheckpoints(func(cycle uint64, data []byte) error {
		snap = append([]byte(nil), data...)
		return fmt.Errorf("parked at %d: %w", cycle, preempt)
	})
	if !errors.Is(err, preempt) {
		t.Fatalf("err = %v, want preemption", err)
	}
	if snap == nil {
		t.Fatal("no snapshot taken")
	}

	wl, err := workload.Get("trace:" + path)
	if err != nil {
		t.Fatal(err)
	}
	g, err := gpusim.ResumeSnapshot(cfg, wl, snap)
	if err != nil {
		t.Fatal(err)
	}
	if got := run(g); *got != *ref {
		t.Errorf("resumed traced run diverged:\nref: %+v\ngot: %+v", ref, got)
	}
}

// TestOpenReplayErrors: the workload-facing entry point surfaces the
// checkpoint error taxonomy.
func TestOpenReplayErrors(t *testing.T) {
	if _, err := trace.OpenReplay("x", filepath.Join(t.TempDir(), "missing.pltr")); err == nil {
		t.Error("missing file opened")
	}
	path := writeSynthetic(t, 2, 50, 8)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	trunc := filepath.Join(t.TempDir(), "trunc.pltr")
	if err := os.WriteFile(trunc, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := trace.OpenReplay("x", trunc); !errors.Is(err, checkpoint.ErrTruncated) {
		t.Errorf("truncated trace: err = %v, want ErrTruncated", err)
	}
}

// TestWriteReadAllRoundTrip writes records through Writer and reads
// every chunk back through Reader.
func TestWriteReadAllRoundTrip(t *testing.T) {
	hdr := trace.Header{Warps: 3, HasModel: true}
	hdr.Model.Seed = 77
	hdr.Model.ZeroFrac = 0.25
	var buf bytes.Buffer
	tw, err := trace.NewWriter(&buf, hdr)
	if err != nil {
		t.Fatal(err)
	}
	var src []trace.Record
	for step := 0; step < 100; step++ {
		for w := 0; w < 3; w++ {
			src = append(src, syntheticRecord(w, step))
			tw.Append(src[len(src)-1])
		}
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := trace.NewReader(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Header(); got.Warps != hdr.Warps || !got.HasModel || got.Model != hdr.Model {
		t.Fatalf("header changed: %+v", got)
	}
	if r.TotalRecords() != uint64(len(src)) {
		t.Fatalf("record count %d, want %d", r.TotalRecords(), len(src))
	}
	// Each warp reads back in issue order; regroup the source to compare.
	for w := 0; w < 3; w++ {
		var want, got []trace.Record
		for _, rec := range src {
			if int(rec.Warp) == w {
				want = append(want, rec)
			}
		}
		for i := 0; i < r.Chunks(w); i++ {
			recs, err := r.LoadChunk(w, i)
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, recs...)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("warp %d records changed:\ngot:  %+v\nwant: %+v", w, got, want)
		}
	}
}

var _ gpusim.Workload = (*trace.Replay)(nil)
