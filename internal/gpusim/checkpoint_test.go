package gpusim

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"github.com/plutus-gpu/plutus/internal/checkpoint"
	"github.com/plutus-gpu/plutus/internal/geom"
	"github.com/plutus-gpu/plutus/internal/secmem"
	"github.com/plutus-gpu/plutus/internal/stats"
)

// scriptWorkload checkpoint support: pos is its whole mutable state.
func (s *scriptWorkload) Cursor() []uint64 {
	out := make([]uint64, len(s.pos))
	for i, p := range s.pos {
		out[i] = uint64(p)
	}
	return out
}

func (s *scriptWorkload) RestoreCursor(cur []uint64) error {
	if len(cur) != len(s.pos) {
		return fmt.Errorf("cursor has %d warps, workload has %d", len(cur), len(s.pos))
	}
	for i, c := range cur {
		s.pos[i] = int(c)
	}
	return nil
}

// ckptScript mixes cold loads, reuse, stores, and compute across both
// partitions — enough work for several checkpoint epochs, touching every
// serialized structure (L2, DRAM, counters, BMT, MAC state, value cache).
func ckptScript() []Inst {
	var sc []Inst
	for k := 0; k < 60; k++ {
		base := geom.Addr(k * 8192)
		sc = append(sc,
			Inst{Kind: Load, Addrs: []geom.Addr{base, base + 0x1000}},
			Inst{Kind: Compute, Cycles: 3},
			Inst{Kind: Store, Addrs: []geom.Addr{base}},
			Inst{Kind: Load, Addrs: []geom.Addr{base + 0x2000}},
		)
	}
	return sc
}

type snap struct {
	cycle uint64
	data  []byte
}

// runCheckpointed runs the script workload under cfg, collecting every
// snapshot, and returns the final statistics and snapshots.
func runCheckpointed(t *testing.T, cfg Config) (*stats.Stats, []snap) {
	t.Helper()
	g, err := New(cfg, newScript(8, ckptScript()))
	if err != nil {
		t.Fatal(err)
	}
	var snaps []snap
	st, err := g.RunWithCheckpoints(func(cycle uint64, data []byte) error {
		snaps = append(snaps, snap{cycle, append([]byte(nil), data...)})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return st, snaps
}

// resumeAndFinish restores snapshot s under cfg with a fresh workload and
// runs to completion, collecting the snapshots taken after the resume.
// It restores from a copy of s and overwrites the copy before running,
// so every resume test also checks that a restored GPU keeps no
// reference to the bytes it was restored from.
func resumeAndFinish(t *testing.T, cfg Config, s snap) (*stats.Stats, []snap) {
	t.Helper()
	data := append([]byte(nil), s.data...)
	g, err := ResumeSnapshot(cfg, newScript(8, ckptScript()), data)
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		data[i] = 0xa5
	}
	var snaps []snap
	st, err := g.RunWithCheckpoints(func(cycle uint64, data []byte) error {
		snaps = append(snaps, snap{cycle, append([]byte(nil), data...)})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return st, snaps
}

// TestResumeDeterminism is the subsystem's core property: for every
// checkpoint N of a run, run(0→end) and run(0→N); restore; run(N→end)
// produce identical statistics — and the resumed run's own snapshots are
// byte-identical to the reference run's later snapshots, so the property
// holds transitively across any chain of kills and resumes. Swept over a
// mid-epoch cadence (odd number, lands inside DRAM bursts) and a
// power-of-two cadence (aligns with partition epoch boundaries).
func TestResumeDeterminism(t *testing.T) {
	for _, every := range []uint64{777, 1024} {
		every := every
		t.Run(fmt.Sprintf("every=%d", every), func(t *testing.T) {
			cfg := testCfg(secmem.Plutus(1 << 20))
			cfg.CheckpointEvery = every
			ref, snaps := runCheckpointed(t, cfg)
			if len(snaps) < 2 {
				t.Fatalf("only %d checkpoints at cadence %d (cycles=%d); workload too short for the sweep",
					len(snaps), every, ref.Cycles)
			}
			for i, s := range snaps {
				st, rest := resumeAndFinish(t, cfg, s)
				if !reflect.DeepEqual(ref, st) {
					t.Fatalf("resume from checkpoint %d (cycle %d): stats diverge\nref:     %+v\nresumed: %+v",
						i, s.cycle, ref, st)
				}
				if len(rest) != len(snaps)-i-1 {
					t.Fatalf("resume from checkpoint %d: %d later snapshots, want %d",
						i, len(rest), len(snaps)-i-1)
				}
				for j, r := range rest {
					want := snaps[i+1+j]
					if r.cycle != want.cycle || !bytes.Equal(r.data, want.data) {
						t.Fatalf("resume from checkpoint %d: snapshot %d differs (cycle %d vs %d)",
							i, j, r.cycle, want.cycle)
					}
				}
			}
		})
	}
}

// TestResumeCrossMode checks that snapshots are portable between
// sequential and parallel execution: both modes produce byte-identical
// snapshot streams, and a snapshot taken sequentially resumes on several
// workers (and vice versa) to the same final statistics.
func TestResumeCrossMode(t *testing.T) {
	seqCfg := testCfg(secmem.Plutus(1 << 20))
	seqCfg.CheckpointEvery = 1200
	parCfg := seqCfg
	parCfg.Workers = 4

	seqSt, seqSnaps := runCheckpointed(t, seqCfg)
	parSt, parSnaps := runCheckpointed(t, parCfg)
	if !reflect.DeepEqual(seqSt, parSt) {
		t.Fatalf("modes diverge before any resume:\nseq: %+v\npar: %+v", seqSt, parSt)
	}
	if len(seqSnaps) != len(parSnaps) {
		t.Fatalf("%d sequential snapshots vs %d parallel", len(seqSnaps), len(parSnaps))
	}
	for i := range seqSnaps {
		if !bytes.Equal(seqSnaps[i].data, parSnaps[i].data) {
			t.Fatalf("snapshot %d differs between modes", i)
		}
	}

	mid := seqSnaps[len(seqSnaps)/2]
	if st, _ := resumeAndFinish(t, parCfg, mid); !reflect.DeepEqual(seqSt, st) {
		t.Fatalf("sequential snapshot resumed in parallel diverges:\nref: %+v\ngot: %+v", seqSt, st)
	}
	if st, _ := resumeAndFinish(t, seqCfg, parSnaps[len(parSnaps)/2]); !reflect.DeepEqual(seqSt, st) {
		t.Fatalf("parallel snapshot resumed sequentially diverges:\nref: %+v\ngot: %+v", seqSt, st)
	}
}

// TestCheckpointSinkStopsRun models preemption: the sink accepts the
// first snapshot then asks to stop; the run aborts with the sink's error
// and the captured snapshot resumes to the reference result.
func TestCheckpointSinkStopsRun(t *testing.T) {
	cfg := testCfg(secmem.Plutus(1 << 20))
	cfg.CheckpointEvery = 1200
	ref, _ := runCheckpointed(t, cfg)

	g, err := New(cfg, newScript(8, ckptScript()))
	if err != nil {
		t.Fatal(err)
	}
	var kept []byte
	_, err = g.RunWithCheckpoints(func(cycle uint64, data []byte) error {
		kept = append([]byte(nil), data...)
		return fmt.Errorf("worker preempted: %w", checkpoint.ErrPreempted)
	})
	if !errors.Is(err, checkpoint.ErrPreempted) {
		t.Fatalf("err = %v, want ErrPreempted", err)
	}
	st, _ := resumeAndFinish(t, cfg, snap{data: kept})
	if !reflect.DeepEqual(ref, st) {
		t.Fatalf("preempted-and-resumed run diverges:\nref: %+v\ngot: %+v", ref, st)
	}
}

// TestResumeRejectsMismatch: a snapshot only resumes under the exact
// configuration and workload it was taken from (execution mode aside).
func TestResumeRejectsMismatch(t *testing.T) {
	cfg := testCfg(secmem.Plutus(1 << 20))
	cfg.CheckpointEvery = 1200
	_, snaps := runCheckpointed(t, cfg)

	other := testCfg(secmem.PSSM(1 << 20))
	other.CheckpointEvery = 2048
	if _, err := ResumeSnapshot(other, newScript(8, ckptScript()), snaps[0].data); !errors.Is(err, checkpoint.ErrMismatch) {
		t.Fatalf("wrong scheme: err = %v, want ErrMismatch", err)
	}
	if _, err := ResumeSnapshot(cfg, newScript(4, ckptScript()), snaps[0].data); !errors.Is(err, checkpoint.ErrMismatch) {
		t.Fatalf("wrong warp count: err = %v, want ErrMismatch", err)
	}
}

// TestResumeRejectsDamage: the typed error taxonomy surfaces through
// ResumeSnapshot for truncated and corrupted snapshot bytes.
func TestResumeRejectsDamage(t *testing.T) {
	cfg := testCfg(secmem.Plutus(1 << 20))
	cfg.CheckpointEvery = 1200
	_, snaps := runCheckpointed(t, cfg)
	good := snaps[0].data
	wl := func() Workload { return newScript(8, ckptScript()) }

	if _, err := ResumeSnapshot(cfg, wl(), good[:len(good)/2]); !errors.Is(err, checkpoint.ErrTruncated) {
		t.Fatalf("truncated: err = %v, want ErrTruncated", err)
	}
	flipped := append([]byte(nil), good...)
	flipped[len(flipped)/3] ^= 0x40
	if _, err := ResumeSnapshot(cfg, wl(), flipped); !errors.Is(err, checkpoint.ErrCorrupt) {
		t.Fatalf("bit flip: err = %v, want ErrCorrupt", err)
	}
}

// A request record that is not back on its free list breaks quiescence:
// a snapshot cannot capture the request it stands for.
func TestQuiescenceReportsLiveRecords(t *testing.T) {
	g, err := New(testCfg(secmem.Plutus(1<<20)), newScript(0, nil))
	if err != nil {
		t.Fatal(err)
	}
	if err := g.quiescenceError(); err != nil {
		t.Fatalf("fresh GPU: %v", err)
	}
	s := g.sectorLoads.Get()
	if err := g.quiescenceError(); !errors.Is(err, checkpoint.ErrNotQuiescent) {
		t.Fatalf("live sector load: err = %v, want ErrNotQuiescent", err)
	}
	g.sectorLoads.Put(s)
	f := g.parts[1].fills.Get()
	if err := g.quiescenceError(); !errors.Is(err, checkpoint.ErrNotQuiescent) {
		t.Fatalf("live L2 fill: err = %v, want ErrNotQuiescent", err)
	}
	g.parts[1].fills.Put(f)
	g.parts[0].sec.Read(0x40, nil)
	if err := g.quiescenceError(); !errors.Is(err, checkpoint.ErrNotQuiescent) {
		t.Fatalf("live secure read: err = %v, want ErrNotQuiescent", err)
	}
}
