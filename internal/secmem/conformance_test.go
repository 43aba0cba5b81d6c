package secmem

// Registry conformance: every scheme reachable through Names() — and
// therefore through the harness, plutusd, the cluster and the tamper
// oracle — must honour the full Engine contract. A scheme added to the
// registry is tested here by construction; nothing needs opting in.

import (
	"bytes"
	"testing"

	"github.com/plutus-gpu/plutus/internal/checkpoint"
	"github.com/plutus-gpu/plutus/internal/geom"
)

// conformanceRig builds a registry scheme's rig with the wiring every
// embedding provides: initial contents and, for mgx, a stream hint
// splitting the working set into a declared stream and irregular space.
func conformanceRig(t *testing.T, name string) *testRig {
	t.Helper()
	cfg, err := ByName(name, protected)
	if err != nil {
		t.Fatalf("ByName(%s): %v", name, err)
	}
	return wire(newRig(t, cfg))
}

// wire installs the embedding's hooks on r's engine.
func wire(r *testRig) *testRig {
	r.e.InitData = func(local geom.Addr) []byte {
		return sector(uint32(local)^0xdead, uint32(local)+7)
	}
	if r.e.cfg.Versions == VersionsDerived {
		r.e.StreamHint = func(local geom.Addr) (uint64, bool) {
			if local < 0x800 {
				return uint64(local) / geom.BlockSize, true
			}
			return 0, false
		}
	}
	return r
}

// driveConformance runs a deterministic mixed workload: fill, re-write,
// and read back with verification, asserting verdict-count monotonicity
// at every step.
func driveConformance(t *testing.T, r *testRig) {
	t.Helper()
	last := uint64(0)
	mono := func() {
		if tot := r.st.Sec.Verdicts.Total(); tot < last {
			t.Fatalf("verdict count went backwards: %d after %d", tot, last)
		} else {
			last = tot
		}
	}
	for i := 0; i < 48; i++ {
		a := geom.Addr(i%32) * geom.SectorSize
		if i%8 < 5 {
			r.write(t, a, sector(uint32(i)*0x01010101, uint32(i)+0x9000))
		} else {
			res := r.read(t, a)
			if !res.OK {
				t.Fatalf("benign read of %#x failed verification", uint64(a))
			}
		}
		mono()
	}
	if r.st.Sec.Verdicts.Total() != 0 {
		t.Fatalf("benign conformance run recorded verdicts: %v", r.st.Sec.Verdicts)
	}
}

func snapshotEngine(t *testing.T, e *Engine) []byte {
	t.Helper()
	data, err := checkpoint.Marshal(e.Codec)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	return data
}

// TestConformanceSnapshotRoundTrip: after a mixed workload, snapshotting
// any registry scheme, restoring into a freshly built engine, and
// re-snapshotting reproduces the exact bytes — and the restored engine
// serves the same plaintext.
func TestConformanceSnapshotRoundTrip(t *testing.T) {
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			r := conformanceRig(t, name)
			driveConformance(t, r)
			want := snapshotEngine(t, r.e)

			fresh := conformanceRig(t, name)
			if err := checkpoint.Unmarshal(want, fresh.e.Codec); err != nil {
				t.Fatalf("decode: %v", err)
			}
			if got := snapshotEngine(t, fresh.e); !bytes.Equal(got, want) {
				t.Fatalf("re-snapshot diverges: %d vs %d bytes", len(got), len(want))
			}
			for i := 0; i < 32; i++ {
				a := geom.Addr(i) * geom.SectorSize
				wantRes, gotRes := r.read(t, a), fresh.read(t, a)
				if !gotRes.OK || !bytes.Equal(gotRes.Data[:], wantRes.Data[:]) {
					t.Fatalf("restored engine diverges at %#x", uint64(a))
				}
			}
		})
	}
}

// TestConformanceGeometry pins each scheme's address-space invariants:
// the data region's sector count, disjoint metadata regions for the
// counter-based schemes, and bijective share placement for ssm.
func TestConformanceGeometry(t *testing.T) {
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			r := conformanceRig(t, name)
			e, cfg := r.e, r.e.Config()
			if cfg.ProtectedBytes%uint64(geom.BlockSize) != 0 {
				t.Fatalf("protected size %d not block aligned", cfg.ProtectedBytes)
			}
			if cfg.Versions == VersionsNone {
				return
			}
			if got, want := e.lay.dataSectors, cfg.ProtectedBytes/geom.SectorSize; got != want {
				t.Fatalf("dataSectors = %d, want %d", got, want)
			}
			if cfg.Check == CheckShares {
				// Every share region must be a bijection of the data
				// sector space, and regions must never collide.
				seen := make(map[uint64]bool)
				for rgn := 0; rgn < cfg.SSMShares; rgn++ {
					lo := uint64(rgn) * e.lay.dataSectors
					hi := lo + e.lay.dataSectors
					for _, i := range []uint64{0, 1, 31, e.lay.dataSectors / 2, e.lay.dataSectors - 1} {
						s := e.ssmSlot(rgn, i)
						if s < lo || s >= hi {
							t.Fatalf("region %d slot %d outside [%d,%d)", rgn, s, lo, hi)
						}
						if seen[s] {
							t.Fatalf("slot collision at %d", s)
						}
						seen[s] = true
					}
					if e.ssmSlot(rgn, 0) == e.ssmSlot(rgn, 1) {
						t.Fatalf("region %d placement not injective", rgn)
					}
				}
				return
			}
			// Counter-based schemes: metadata regions sit past the data
			// region, in order, without overlap.
			if e.lay.ctrBase < geom.Addr(cfg.ProtectedBytes) {
				t.Fatalf("counter region overlaps data: %#x", uint64(e.lay.ctrBase))
			}
			if e.lay.macBase < e.lay.ctrBase+geom.Addr(e.lay.ctrBytes) {
				t.Fatalf("MAC region overlaps counters")
			}
			if e.lay.bmtBase < e.lay.macBase+geom.Addr(e.lay.macBytes) {
				t.Fatalf("BMT region overlaps MACs")
			}
			if e.compact != nil && e.lay.cctrBase < e.lay.bmtBase {
				t.Fatalf("compact region overlaps BMT window")
			}
		})
	}
}

// TestConformanceRegistryComplete: the in-package scheme list used by
// the older round-trip tests and the registry agree, so a scheme cannot
// be registered without also running the whole conformance suite.
func TestConformanceRegistryComplete(t *testing.T) {
	names := Names()
	if got, want := len(allSchemes()), len(names); got != want {
		t.Fatalf("allSchemes() has %d entries, registry %d — keep them in lockstep", got, want)
	}
	for _, name := range names {
		if _, err := ByName(name, protected); err != nil {
			t.Errorf("ByName(%s): %v", name, err)
		}
	}
}
