package gpusim

import (
	"testing"

	"github.com/plutus-gpu/plutus/internal/geom"
	"github.com/plutus-gpu/plutus/internal/secmem"
	"github.com/plutus-gpu/plutus/internal/stats"
)

// runScriptMode runs one scripted workload under sc with the given
// worker count (1 = sequential) and returns the full statistics record
// by value — stats.Stats contains only value fields, so runs compare
// with ==.
func runScriptMode(t *testing.T, sc secmem.Config, workers int) stats.Stats {
	t.Helper()
	wl := newScript(12, []Inst{
		{Kind: Load, Addrs: []geom.Addr{0x100, 0x2100, 0x4100, 0x6100}},
		{Kind: Compute, Cycles: 4},
		{Kind: Store, Addrs: []geom.Addr{0x100, 0x3100}},
		{Kind: Load, Addrs: []geom.Addr{0x8000, 0x8100, 0x9000}},
		{Kind: Store, Addrs: []geom.Addr{0x8000}},
		{Kind: Load, Addrs: []geom.Addr{0x100}},
	})
	cfg := testCfg(sc)
	cfg.Partitions = 4
	cfg.SMs = 4
	cfg.Workers = workers
	g, err := New(cfg, wl)
	if err != nil {
		t.Fatal(err)
	}
	return *g.Run()
}

// Parallel partition execution must be bit-identical to sequential mode
// for every security scheme: the same cycles, traffic, cache and
// security counters, down to the last field.
func TestParallelBitIdenticalToSequential(t *testing.T) {
	schemes := []secmem.Config{
		secmem.Baseline(1 << 22),
		secmem.PSSM(1 << 22),
		secmem.CommonCtr(1 << 22),
		secmem.PlutusValueOnly(1 << 22),
		secmem.PlutusFineGrain(1<<22, secmem.GranAll32),
		secmem.Plutus(1 << 22),
		secmem.PlutusNoTree(1 << 22),
	}
	for _, sc := range schemes {
		sc := sc
		t.Run(sc.Scheme, func(t *testing.T) {
			seq := runScriptMode(t, sc, 1)
			par := runScriptMode(t, sc, 3)
			if seq != par {
				t.Fatalf("parallel run diverged from sequential:\nseq: %+v\npar: %+v", seq, par)
			}
		})
	}
}

// A zero-latency crossbar still needs a positive lookahead window; the
// simulator models it as one cycle, and both modes must agree.
func TestParallelZeroXbarLatency(t *testing.T) {
	run := func(workers int) stats.Stats {
		wl := newScript(4, []Inst{
			{Kind: Load, Addrs: []geom.Addr{0x0, 0x1000}},
			{Kind: Store, Addrs: []geom.Addr{0x0}},
		})
		cfg := testCfg(secmem.Plutus(1 << 20))
		cfg.XbarLatency = 0
		cfg.Workers = workers
		g, err := New(cfg, wl)
		if err != nil {
			t.Fatal(err)
		}
		return *g.Run()
	}
	if seq, par := run(1), run(8); seq != par {
		t.Fatalf("zero-xbar runs diverged:\nseq: %+v\npar: %+v", seq, par)
	}
}

// Parallel mode must itself be repeatable — two parallel runs must
// agree with each other, not just with one sequential reference.
func TestParallelRepeatable(t *testing.T) {
	a := runScriptMode(t, secmem.Plutus(1<<22), 5)
	b := runScriptMode(t, secmem.Plutus(1<<22), 5)
	if a != b {
		t.Fatalf("two parallel runs diverged:\n1st: %+v\n2nd: %+v", a, b)
	}
}
