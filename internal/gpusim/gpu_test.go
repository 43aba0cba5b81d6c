package gpusim

import (
	"strings"
	"testing"

	"github.com/plutus-gpu/plutus/internal/geom"
	"github.com/plutus-gpu/plutus/internal/secmem"
)

// scriptWorkload is a minimal deterministic workload for unit tests:
// every warp executes the same script of instructions.
type scriptWorkload struct {
	name   string
	warps  int
	script []Inst
	pos    []int
	memVal func(geom.Addr) uint32
}

func newScript(warps int, script []Inst) *scriptWorkload {
	return &scriptWorkload{name: "script", warps: warps, script: script, pos: make([]int, warps)}
}

func (s *scriptWorkload) Name() string { return s.name }
func (s *scriptWorkload) Warps() int   { return s.warps }
func (s *scriptWorkload) Next(w int) (Inst, bool) {
	if s.pos[w] >= len(s.script) {
		return Inst{}, false
	}
	inst := s.script[s.pos[w]]
	s.pos[w]++
	return inst, true
}
func (s *scriptWorkload) MemValue(a geom.Addr) uint32 {
	if s.memVal != nil {
		return s.memVal(a)
	}
	return uint32(a)
}
func (s *scriptWorkload) StoreValue(w int, a geom.Addr) uint32 { return uint32(a) ^ 0xf00d }

func testCfg(sec secmem.Config) Config {
	c := ScaledConfig(sec)
	c.SMs = 2
	c.Partitions = 2
	c.Sec.ProtectedBytes = 1 << 20
	return c
}

func TestValidateConfig(t *testing.T) {
	c := testCfg(secmem.Baseline(1 << 20))
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	c.Partitions = 3
	if err := c.Validate(); err == nil {
		t.Error("non-power-of-two partitions validated")
	}
}

func TestComputeOnlyWorkloadIPC(t *testing.T) {
	// 4 warps on 2 SMs, 10 one-cycle compute instructions each: the SMs
	// issue 1/cycle, so 40 instructions over ≥ 20 cycles, IPC ≤ 2.
	wl := newScript(4, repeat(Inst{Kind: Compute, Cycles: 1}, 10))
	g, err := New(testCfg(secmem.Baseline(1<<20)), wl)
	if err != nil {
		t.Fatal(err)
	}
	st := g.Run()
	if st.Instructions != 40 {
		t.Fatalf("instructions = %d, want 40", st.Instructions)
	}
	if st.Cycles < 20 {
		t.Fatalf("cycles = %d, want ≥ 20 (issue-bandwidth bound)", st.Cycles)
	}
	if st.Traffic.Total() != 0 {
		t.Fatalf("compute-only run moved %d bytes", st.Traffic.Total())
	}
}

func repeat(i Inst, n int) []Inst {
	out := make([]Inst, n)
	for k := range out {
		out[k] = i
	}
	return out
}

func TestLoadGeneratesDataTraffic(t *testing.T) {
	script := []Inst{{Kind: Load, Addrs: []geom.Addr{0x0, 0x1000, 0x2000, 0x3000}}}
	wl := newScript(1, script)
	g, err := New(testCfg(secmem.Baseline(1<<20)), wl)
	if err != nil {
		t.Fatal(err)
	}
	st := g.Run()
	if st.LoadInsts != 1 {
		t.Fatalf("loads = %d", st.LoadInsts)
	}
	// 4 distinct sectors → 4 cold misses → 4 data reads.
	if st.Traffic.Reads[0] != 4 {
		t.Fatalf("data reads = %d, want 4", st.Traffic.Reads[0])
	}
}

func TestCoalescing(t *testing.T) {
	// 32 threads touching consecutive 4 B words = 4 sectors.
	var addrs []geom.Addr
	for i := 0; i < 32; i++ {
		addrs = append(addrs, geom.Addr(i*4))
	}
	var g GPU
	got := g.coalesce(addrs)
	if len(got) != 4 {
		t.Fatalf("coalesced to %d sectors, want 4", len(got))
	}
	// Scattered addresses stay scattered.
	scattered := []geom.Addr{0, 4096, 8192, 0}
	if got := g.coalesce(scattered); len(got) != 3 {
		t.Fatalf("scattered coalesced to %d, want 3", len(got))
	}
}

func TestL2CapturesReuse(t *testing.T) {
	// Two identical loads: second should hit in L2, one memory fetch.
	script := []Inst{
		{Kind: Load, Addrs: []geom.Addr{0x40}},
		{Kind: Load, Addrs: []geom.Addr{0x40}},
	}
	wl := newScript(1, script)
	g, _ := New(testCfg(secmem.Baseline(1<<20)), wl)
	st := g.Run()
	if st.Traffic.Reads[0] != 1 {
		t.Fatalf("data reads = %d, want 1 (L2 reuse)", st.Traffic.Reads[0])
	}
	// With intra-warp MLP the second load may issue while the first is
	// still in flight: either a hit or an MSHR merge proves reuse.
	if st.L2.Hits+st.L2.MSHRMerges == 0 {
		t.Fatal("no L2 reuse recorded")
	}
}

func TestStoresWriteBack(t *testing.T) {
	script := []Inst{{Kind: Store, Addrs: []geom.Addr{0x100}}}
	wl := newScript(1, script)
	g, _ := New(testCfg(secmem.Baseline(1<<20)), wl)
	st := g.Run()
	if st.StoreInsts != 1 {
		t.Fatalf("stores = %d", st.StoreInsts)
	}
	// The dirty sector must eventually be written to memory (flush).
	if st.Traffic.Writes[0] != 1 {
		t.Fatalf("data writes = %d, want 1", st.Traffic.Writes[0])
	}
}

func TestSecureSchemeAddsMetadataTraffic(t *testing.T) {
	script := []Inst{{Kind: Load, Addrs: []geom.Addr{0x0, 0x5000, 0x9000, 0xd000}}}
	base, _ := New(testCfg(secmem.Baseline(1<<20)), newScript(1, script))
	stBase := base.Run()
	sec, _ := New(testCfg(secmem.PSSM(1<<20)), newScript(1, script))
	stSec := sec.Run()
	if stSec.Traffic.MetadataBytes() == 0 {
		t.Fatal("secure run moved no metadata")
	}
	if stSec.Cycles <= stBase.Cycles {
		t.Fatalf("secure run (%d cyc) not slower than baseline (%d cyc)", stSec.Cycles, stBase.Cycles)
	}
}

func TestInstructionBudgetStops(t *testing.T) {
	wl := newScript(2, repeat(Inst{Kind: Compute, Cycles: 1}, 1000))
	cfg := testCfg(secmem.Baseline(1 << 20))
	cfg.MaxInstructions = 100
	g, _ := New(cfg, wl)
	st := g.Run()
	if st.Instructions < 100 || st.Instructions > 110 {
		t.Fatalf("instructions = %d, want ≈ 100", st.Instructions)
	}
}

func TestWarpsRetireCleanly(t *testing.T) {
	wl := newScript(8, []Inst{
		{Kind: Load, Addrs: []geom.Addr{0x200}},
		{Kind: Compute, Cycles: 3},
		{Kind: Store, Addrs: []geom.Addr{0x200}},
	})
	g, _ := New(testCfg(secmem.Plutus(1<<20)), wl)
	st := g.Run()
	if g.activeWarps != 0 {
		t.Fatalf("%d warps still active", g.activeWarps)
	}
	if st.Instructions != 24 {
		t.Fatalf("instructions = %d, want 24", st.Instructions)
	}
	if st.Sec.TamperDetected != 0 || st.Sec.ReplayDetected != 0 {
		t.Fatal("false security alarms in benign run")
	}
}

// Memory-bound workloads must be slower under security; the deficit
// shrinks with Plutus relative to PSSM on value-local data.
func TestSchemeOrderingOnValueLocalWorkload(t *testing.T) {
	mkScript := func() []Inst {
		var script []Inst
		for k := 0; k < 60; k++ {
			// Strided cold loads, metadata-cache hostile.
			script = append(script, Inst{Kind: Load, Addrs: []geom.Addr{geom.Addr(k * 8192)}})
		}
		return script
	}
	run := func(sec secmem.Config) uint64 {
		wl := newScript(16, mkScript())
		wl.memVal = func(geom.Addr) uint32 { return 7 } // maximal value locality
		cfg := testCfg(sec)
		g, err := New(cfg, wl)
		if err != nil {
			t.Fatal(err)
		}
		return g.Run().Cycles
	}
	base := run(secmem.Baseline(1 << 20))
	pssm := run(secmem.PSSM(1 << 20))
	plutus := run(secmem.Plutus(1 << 20))
	if pssm <= base {
		t.Errorf("PSSM (%d) should be slower than no-security (%d)", pssm, base)
	}
	if plutus >= pssm {
		t.Errorf("Plutus (%d cyc) should beat PSSM (%d cyc) on value-local data", plutus, pssm)
	}
}

// TestAddressPastProtectedSpaceFails: an instruction addressing memory
// past the protected space fails the run under every scheme, with the
// warp, the address and the limit, instead of panicking inside the
// metadata structures. The last protected word still runs.
func TestAddressPastProtectedSpaceFails(t *testing.T) {
	for _, name := range secmem.Names() {
		t.Run(name, func(t *testing.T) {
			sc, err := secmem.ByName(name, 1<<20)
			if err != nil {
				t.Fatal(err)
			}
			cfg := testCfg(sc)
			cfg.CheckpointEvery = 1
			top := geom.Addr(cfg.Sec.ProtectedBytes * uint64(cfg.Partitions))
			run := func(script []Inst) (int, error) {
				g, err := New(cfg, newScript(2, script))
				if err != nil {
					t.Fatal(err)
				}
				snaps := 0
				_, err = g.RunWithCheckpoints(func(uint64, []byte) error { snaps++; return nil })
				return snaps, err
			}
			if _, err := run([]Inst{
				{Kind: Load, Addrs: []geom.Addr{top - 4}},
				{Kind: Store, Addrs: []geom.Addr{top - 32}},
			}); err != nil {
				t.Fatalf("last protected sector: %v", err)
			}
			snaps, err := run([]Inst{
				{Kind: Load, Addrs: []geom.Addr{3 << 30}},
				{Kind: Store, Addrs: []geom.Addr{5 << 30}},
			})
			if err == nil || !strings.Contains(err.Error(), "warp 0 address 0xc0000000 is past the protected space (1048576 bytes per partition)") {
				t.Fatalf("err = %v, want the warp 0 load past the protected space", err)
			}
			if snaps != 0 {
				t.Errorf("faulted run took %d snapshots", snaps)
			}
		})
	}
}

// Loads parked on a full L2 MSHR file all complete. Only fill
// completions wake parked loads, and a woken load that hits or merges
// takes no MSHR; with one or two MSHRs and 16 warps sharing blocks, a
// woken batch that issues no fill leaves the rest parked unless it
// wakes the next itself. A stranded load would also fail the run.
func TestParkedLoadsComplete(t *testing.T) {
	const warps, loads = 16, 16
	var script []Inst
	for k := 0; k < loads; k++ {
		addrs := make([]geom.Addr, 8)
		for j := range addrs {
			addrs[j] = geom.Addr((k%4)*8192 + j*1024)
		}
		script = append(script, Inst{Kind: Load, Addrs: addrs})
	}
	for _, mshrs := range []int{1, 2, 4} {
		cfg := testCfg(secmem.Baseline(1 << 20))
		cfg.L2MSHRs = mshrs
		g, err := New(cfg, newScript(warps, script))
		if err != nil {
			t.Fatal(err)
		}
		st, err := g.RunWithCheckpoints(nil)
		if err != nil {
			t.Fatalf("%d MSHRs: %v", mshrs, err)
		}
		parked := 0
		for _, p := range g.parts {
			parked += p.mshrWait.Len()
		}
		if st.Instructions != warps*loads || parked != 0 || g.activeWarps != 0 {
			t.Fatalf("%d MSHRs: issued %d of %d instructions; %d loads parked, %d warps active",
				mshrs, st.Instructions, warps*loads, parked, g.activeWarps)
		}
	}
}
