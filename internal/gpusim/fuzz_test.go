package gpusim

import (
	"encoding/binary"
	"errors"
	"testing"

	"github.com/plutus-gpu/plutus/internal/checkpoint"
	"github.com/plutus-gpu/plutus/internal/secmem"
)

// hostileSchemes are the compositions the hostile-snapshot tests take
// their base snapshots from: stored and compact counters with the value
// cache, derived versions, and scattered shares.
var hostileSchemes = []string{"plutus", "mgx", "ssm"}

// baseSnapshot returns the first snapshot of the checkpointed script run
// under scheme, and the configuration it resumes under.
func baseSnapshot(tb testing.TB, scheme string) (Config, *checkpoint.File) {
	tb.Helper()
	sc, err := secmem.ByName(scheme, 1<<20)
	if err != nil {
		tb.Fatal(err)
	}
	cfg := testCfg(sc)
	cfg.CheckpointEvery = 1200
	g, err := New(cfg, newScript(8, ckptScript()))
	if err != nil {
		tb.Fatal(err)
	}
	var first []byte
	if _, err := g.RunWithCheckpoints(func(_ uint64, data []byte) error {
		if first == nil {
			first = append([]byte(nil), data...)
		}
		return nil
	}); err != nil {
		tb.Fatal(err)
	}
	f, err := checkpoint.Decode(first)
	if err != nil {
		tb.Fatal(err)
	}
	return cfg, f
}

// withSection re-encodes f with section name's payload replaced, so the
// container's CRCs are valid and only the section walk can object.
func withSection(f *checkpoint.File, name string, payload []byte) []byte {
	out := &checkpoint.File{}
	for _, s := range f.Sections() {
		if s.Name == name {
			out.Add(s.Name, payload)
		} else {
			out.Add(s.Name, s.Payload)
		}
	}
	return out.Encode()
}

// patched returns a copy of p with patch written at off, growing p when
// the patch runs past its end.
func patched(p []byte, off int, patch []byte) []byte {
	out := append([]byte(nil), p...)
	if off > len(out) {
		off = len(out)
	}
	if n := off + len(patch); n > len(out) {
		out = append(out, make([]byte, n-len(out))...)
	}
	copy(out[off:], patch)
	return out
}

// parkedCountOffset is where the "gpu" section keeps the parked-warp
// count: two clock words, four counters, the budget flag, then the SM
// count and slots and the warp count and flags.
func parkedCountOffset(cfg Config, warps int) int {
	return 6*8 + 1 + 4 + 8*cfg.SMs + 4 + warps
}

var maxCount = binary.LittleEndian.AppendUint32(nil, 0xFFFFFFFF)

// TestResumeRejectsHostileCounts: a workload cursor or parked list that
// claims 2^32−1 entries fails with ErrCorrupt before anything is
// allocated from the count (it used to allocate 34 GB and die).
func TestResumeRejectsHostileCounts(t *testing.T) {
	cfg, f := baseSnapshot(t, "plutus")
	gpu, _ := f.Section("gpu")
	cases := map[string][]byte{
		"workload": withSection(f, "workload", maxCount),
		"gpu":      withSection(f, "gpu", patched(gpu, parkedCountOffset(cfg, 8), maxCount)),
	}
	for _, name := range []string{"workload", "gpu"} {
		_, err := ResumeSnapshot(cfg, newScript(8, ckptScript()), cases[name])
		if !errors.Is(err, checkpoint.ErrCorrupt) {
			t.Errorf("%s section count 0xFFFFFFFF: err = %v, want ErrCorrupt", name, err)
		}
	}
}

// FuzzResumeSnapshot overwrites bytes of one section of a real snapshot
// and recomputes the CRCs, so every input reaches the section walks.
// ResumeSnapshot must accept it or fail with ErrCorrupt or ErrMismatch:
// never panic, and never allocate from a count the payload cannot back.
// Running cycles after an accepted mutation is out of scope.
func FuzzResumeSnapshot(f *testing.F) {
	type base struct {
		cfg  Config
		file *checkpoint.File
	}
	var bases []base
	for _, s := range hostileSchemes {
		cfg, file := baseSnapshot(f, s)
		bases = append(bases, base{cfg, file})
	}
	f.Add(uint8(0), uint8(2), uint32(0), maxCount) // workload count 0xFFFFFFFF
	f.Add(uint8(0), uint8(1), uint32(parkedCountOffset(bases[0].cfg, 8)), maxCount)
	f.Add(uint8(1), uint8(3), uint32(100), []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x0f})
	f.Add(uint8(2), uint8(4), uint32(40), []byte{0x01})

	f.Fuzz(func(t *testing.T, scheme, section uint8, off uint32, patch []byte) {
		b := bases[int(scheme)%len(bases)]
		secs := b.file.Sections()
		s := secs[int(section)%len(secs)]
		data := withSection(b.file, s.Name, patched(s.Payload, int(off%uint32(len(s.Payload)+1)), patch))
		_, err := ResumeSnapshot(b.cfg, newScript(8, ckptScript()), data)
		if err != nil && !errors.Is(err, checkpoint.ErrCorrupt) && !errors.Is(err, checkpoint.ErrMismatch) {
			t.Fatalf("section %s: untyped error: %v", s.Name, err)
		}
	})
}
