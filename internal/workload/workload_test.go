package workload

import (
	"path/filepath"
	"strings"
	"testing"

	"github.com/plutus-gpu/plutus/internal/geom"
	"github.com/plutus-gpu/plutus/internal/gpusim"
)

// mustBench instantiates a suite benchmark as its concrete type, for
// tests that reach past gpusim.Workload into Spec/Reset.
func mustBench(t *testing.T, name string) *Bench {
	t.Helper()
	s, ok := registry[name]
	if !ok {
		t.Fatalf("unknown suite benchmark %q", name)
	}
	b, err := NewBench(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestRegistryComplete(t *testing.T) {
	names := SuiteNames()
	if len(names) < 12 {
		t.Fatalf("only %d benchmarks registered", len(names))
	}
	suites := map[string]int{}
	for _, n := range names {
		b := mustBench(t, n)
		if err := b.Spec().Validate(); err != nil {
			t.Errorf("%s: invalid spec: %v", n, err)
		}
		suites[b.Spec().Suite]++
	}
	for _, s := range []string{"rodinia", "parboil", "lonestar", "pannotia"} {
		if suites[s] == 0 {
			t.Errorf("suite %s has no benchmarks", s)
		}
	}
}

// Names must resolve everything it lists, cover the suite and the
// scenario corpus, and stay disjoint from the golden-pinned SuiteNames.
func TestNamesResolve(t *testing.T) {
	names := Names()
	if len(names) <= len(SuiteNames()) {
		t.Fatalf("Names() (%d) should extend SuiteNames() (%d) with scenarios",
			len(names), len(SuiteNames()))
	}
	scenarios := 0
	for _, n := range names {
		if _, err := Get(n); err != nil {
			t.Fatalf("Get(%q): %v", n, err)
		}
		if strings.HasPrefix(n, "scn-") {
			scenarios++
		}
	}
	if scenarios < 4 {
		t.Errorf("scenario corpus too small: %d families", scenarios)
	}
	for _, n := range SuiteNames() {
		if strings.HasPrefix(n, "scn-") {
			t.Errorf("SuiteNames leaked scenario %q into the golden set", n)
		}
	}
}

func TestGetUnknown(t *testing.T) {
	if _, err := Get("nope"); err == nil {
		t.Fatal("unknown benchmark did not error")
	}
}

func TestTraceSeedRejected(t *testing.T) {
	if _, err := GetSeeded("trace:/nonexistent.pltr", 7); err == nil ||
		!strings.Contains(err.Error(), "seedless") {
		t.Fatalf("seeded trace replay should be rejected, got %v", err)
	}
}

// TestCheckRegisteredBuildsNothing: every listed name checks clean, and
// checking a registered name instantiates nothing.
func TestCheckRegisteredBuildsNothing(t *testing.T) {
	for _, n := range Names() {
		if err := Check(n); err != nil {
			t.Fatalf("Check(%q): %v", n, err)
		}
	}
	if n := testing.AllocsPerRun(100, func() { Check("bfs") }); n != 0 {
		t.Errorf("Check of a registered name allocates %v times per call, want 0", n)
	}
}

// TestCheckFailsAsGet: a name Get refuses, Check refuses with Get's
// exact error — an unknown name, and a trace path that does not exist.
func TestCheckFailsAsGet(t *testing.T) {
	missing := "trace:" + filepath.Join(t.TempDir(), "missing.pltr")
	for _, name := range []string{"nope", missing} {
		_, want := Get(name)
		got := Check(name)
		if want == nil || got == nil || got.Error() != want.Error() {
			t.Errorf("Check(%q) = %v, want Get's error %v", name, got, want)
		}
	}
}

func TestDeterminism(t *testing.T) {
	a := MustGet("bfs")
	b := MustGet("bfs")
	for k := 0; k < 200; k++ {
		ia, oka := a.Next(3)
		ib, okb := b.Next(3)
		if oka != okb || ia.Kind != ib.Kind || len(ia.Addrs) != len(ib.Addrs) {
			t.Fatalf("step %d: divergent instructions", k)
		}
		for j := range ia.Addrs {
			if ia.Addrs[j] != ib.Addrs[j] {
				t.Fatalf("step %d: divergent address %d", k, j)
			}
		}
	}
	if a.MemValue(0x1234) != b.MemValue(0x1234) {
		t.Fatal("MemValue not deterministic")
	}
}

func TestResetRewinds(t *testing.T) {
	b := mustBench(t, "hotspot")
	first, _ := b.Next(0)
	for k := 0; k < 50; k++ {
		b.Next(0)
	}
	b.Reset()
	again, _ := b.Next(0)
	if first.Kind != again.Kind {
		t.Fatal("Reset did not rewind warp streams")
	}
}

func TestWarpsRetire(t *testing.T) {
	b := mustBench(t, "mis")
	n := 0
	for {
		if _, ok := b.Next(1); !ok {
			break
		}
		n++
	}
	if n != b.Spec().InstsPerWarp {
		t.Fatalf("warp ran %d instructions, want %d", n, b.Spec().InstsPerWarp)
	}
}

func TestAddressesWithinFootprint(t *testing.T) {
	for _, name := range SuiteNames() {
		b := mustBench(t, name)
		fp := geom.Addr(b.Spec().Footprint)
		for k := 0; k < 300; k++ {
			inst, ok := b.Next(k % b.Spec().Warps)
			if !ok {
				continue
			}
			for _, a := range inst.Addrs {
				if a >= fp {
					t.Fatalf("%s: address %#x beyond footprint %#x", name, a, fp)
				}
			}
		}
	}
}

func TestReadWriteMixApproximatesSpec(t *testing.T) {
	for _, name := range []string{"kmeans", "histo", "backprop"} {
		b := mustBench(t, name)
		loads, stores := 0, 0
		for w := 0; w < b.Spec().Warps; w++ {
			for {
				inst, ok := b.Next(w)
				if !ok {
					break
				}
				switch inst.Kind {
				case gpusim.Load:
					loads++
				case gpusim.Store:
					stores++
				}
			}
		}
		got := float64(loads) / float64(loads+stores)
		want := b.Spec().ReadFrac
		if got < want-0.05 || got > want+0.05 {
			t.Errorf("%s: read fraction %.3f, spec %.3f", name, got, want)
		}
	}
}

func TestMemFracApproximatesSpec(t *testing.T) {
	b := mustBench(t, "sgemm")
	mem, total := 0, 0
	for w := 0; w < 64; w++ {
		for {
			inst, ok := b.Next(w)
			if !ok {
				break
			}
			total++
			if inst.Kind != gpusim.Compute {
				mem++
			}
		}
	}
	got := float64(mem) / float64(total)
	want := b.Spec().MemFrac
	if got < want-0.05 || got > want+0.05 {
		t.Errorf("mem fraction %.3f, spec %.3f", got, want)
	}
}

// Value profiles must actually deliver value locality: the fraction of
// zero words should track ZeroFrac, and pool values must repeat.
func TestValueProfileShape(t *testing.T) {
	b := mustBench(t, "bfs") // ZeroFrac 0.40
	zeros, total := 0, 0
	seen := map[uint32]int{}
	for a := geom.Addr(0); a < 1<<16; a += 4 {
		v := b.MemValue(a)
		total++
		if v == 0 {
			zeros++
		}
		seen[v&^0xf]++
	}
	zf := float64(zeros) / float64(total)
	spec := b.Spec().Values.ZeroFrac
	if zf < spec-0.05 || zf > spec+0.05 {
		t.Errorf("zero fraction %.3f, spec %.3f", zf, spec)
	}
	// Top non-zero masked value should repeat far beyond uniform chance.
	best := 0
	for v, n := range seen {
		if v != 0 && n > best {
			best = n
		}
	}
	if best < total/200 {
		t.Errorf("hot pool not visible: best repeat count %d of %d", best, total)
	}
}

// Graph patterns must be measurably less coalesced than streaming ones.
func TestPatternCoalescingContrast(t *testing.T) {
	sectorsOf := func(name string) float64 {
		b := mustBench(t, name)
		totalSectors, insts := 0, 0
		for w := 0; w < 32; w++ {
			for {
				inst, ok := b.Next(w)
				if !ok {
					break
				}
				if inst.Kind == gpusim.Compute {
					continue
				}
				uniq := map[geom.Addr]bool{}
				for _, a := range inst.Addrs {
					uniq[geom.SectorAddr(a)] = true
				}
				totalSectors += len(uniq)
				insts++
			}
		}
		return float64(totalSectors) / float64(insts)
	}
	stream := sectorsOf("pathfinder")
	graph := sectorsOf("bfs")
	if graph < 2*stream {
		t.Errorf("graph sectors/access %.2f should far exceed streaming %.2f", graph, stream)
	}
}

var _ gpusim.Workload = (*Bench)(nil)
