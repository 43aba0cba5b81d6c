package gpusim

import (
	"encoding/binary"
	"errors"
	"testing"

	"github.com/plutus-gpu/plutus/internal/checkpoint"
	"github.com/plutus-gpu/plutus/internal/geom"
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

// l2Record is the wire size of one L2 data record: its address, the
// length prefix and the sector.
const l2Record = 8 + 4 + geom.SectorSize

// l2DataMutation overwrites part of part0's payload at off with patch.
type l2DataMutation struct {
	name  string
	off   int
	patch []byte
}

// l2DataMutations returns patches of f's part0 L2 data walk that break
// its consistency with the L2 tags walked before it: a wrong count, a
// repeated, descending or unaligned address, or a sector the restored
// L2 does not hold.
func l2DataMutations(tb testing.TB, cfg Config, f *checkpoint.File) []l2DataMutation {
	tb.Helper()
	g, err := ResumeSnapshot(cfg, newScript(8, ckptScript()), f.Encode())
	if err != nil {
		tb.Fatal(err)
	}
	p := g.parts[0]
	prefix, err := checkpoint.Marshal(func(c *checkpoint.Codec) {
		walkClock(c, p.eng)
		checkpoint.Uint64(c, &p.l2Free)
		p.l2.Codec(c)
	})
	if err != nil {
		tb.Fatal(err)
	}
	payload, _ := f.Section("part0")
	le := binary.LittleEndian
	off := len(prefix)
	n := int(le.Uint64(payload[off:]))
	if n < 2 {
		tb.Fatalf("part0 holds %d L2 data records, want at least 2", n)
	}
	rec := func(k int) int { return off + 8 + k*l2Record }
	a0, a1 := payload[rec(0):rec(0)+8], payload[rec(1):rec(1)+8]
	swapped := append(append(append([]byte(nil), a1...), payload[rec(0)+8:rec(1)]...), a0...)
	absent := geom.Addr(cfg.Sec.ProtectedBytes - geom.SectorSize)
	if p.l2.Probe(absent) != 0 {
		tb.Fatalf("the L2 holds %#x", absent)
	}
	return []l2DataMutation{
		{"count one short", off, le.AppendUint64(nil, uint64(n-1))},
		{"count one over", off, le.AppendUint64(nil, uint64(n+1))},
		{"repeated address", rec(1), a0},
		{"descending addresses", rec(0), swapped},
		{"unaligned address", rec(0), le.AppendUint64(nil, le.Uint64(a0)+1)},
		{"sector not held", rec(n - 1), le.AppendUint64(nil, uint64(absent))},
	}
}

// TestResumeRejectsInconsistentL2Data: the L2 data must name exactly
// the sectors the restored L2 holds valid, once each and ascending, or
// ResumeSnapshot fails with ErrCorrupt. Before the check such a
// snapshot restored data for sectors the L2 did not hold.
func TestResumeRejectsInconsistentL2Data(t *testing.T) {
	cfg, f := baseSnapshot(t, "plutus")
	payload, _ := f.Section("part0")
	for _, m := range l2DataMutations(t, cfg, f) {
		data := withSection(f, "part0", patched(payload, m.off, m.patch))
		if _, err := ResumeSnapshot(cfg, newScript(8, ckptScript()), data); !errors.Is(err, checkpoint.ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", m.name, err)
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
	for _, m := range l2DataMutations(f, bases[0].cfg, bases[0].file) {
		f.Add(uint8(0), uint8(3), uint32(m.off), m.patch) // part0
	}

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
