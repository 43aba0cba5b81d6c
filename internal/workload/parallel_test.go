package workload

import (
	"fmt"
	"testing"

	"github.com/plutus-gpu/plutus/internal/counters"
	"github.com/plutus-gpu/plutus/internal/gpusim"
	"github.com/plutus-gpu/plutus/internal/secmem"
	"github.com/plutus-gpu/plutus/internal/stats"
)

// runSuiteMode executes one (benchmark, scheme, seed) run on the scaled
// 8-partition GPU with the given worker count (1 = sequential).
func runSuiteMode(t *testing.T, bench string, sc secmem.Config, seed uint64, workers int) stats.Stats {
	t.Helper()
	wl, err := GetSeeded(bench, seed)
	if err != nil {
		t.Fatal(err)
	}
	cfg := gpusim.ScaledConfig(sc)
	cfg.Sec.ProtectedBytes = 128 << 20
	cfg.MaxInstructions = 400
	cfg.Workers = workers
	g, err := gpusim.New(cfg, wl)
	if err != nil {
		t.Fatal(err)
	}
	return *g.Run()
}

// Parallel partition execution must be bit-identical to sequential mode
// across the whole benchmark suite: every workload, representative
// schemes, full stats equality (stats.Stats has only value fields, so ==
// is a field-for-field comparison — the figure tables derive from these
// fields alone).
func TestParallelDeterminismSuite(t *testing.T) {
	benches := Names()
	if testing.Short() {
		benches = benches[:3]
	}
	schemes := []secmem.Config{secmem.Baseline(0), secmem.PSSM(0), secmem.Plutus(0)}
	for _, bench := range benches {
		for _, sc := range schemes {
			bench, sc := bench, sc
			t.Run(bench+"/"+sc.Scheme, func(t *testing.T) {
				seq := runSuiteMode(t, bench, sc, 1, 1)
				par := runSuiteMode(t, bench, sc, 1, 4)
				if seq != par {
					t.Fatalf("parallel diverged from sequential:\nseq: %+v\npar: %+v", seq, par)
				}
			})
		}
	}
}

// The guarantee must hold across independent seeds and every scheme
// family, not just one lucky event interleaving.
func TestParallelDeterminismSeeds(t *testing.T) {
	schemes := []secmem.Config{
		secmem.Baseline(0),
		secmem.PSSM(0),
		secmem.Plutus(0),
		secmem.PlutusCompact(0, counters.Compact3BitAdaptive),
	}
	seeds := []uint64{1, 2, 3}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, sc := range schemes {
		for _, seed := range seeds {
			sc, seed := sc, seed
			t.Run(fmt.Sprintf("%s/seed%d", sc.Scheme, seed), func(t *testing.T) {
				seq := runSuiteMode(t, "bfs", sc, seed, 1)
				par := runSuiteMode(t, "bfs", sc, seed, 4)
				if seq != par {
					t.Fatalf("seed %d: parallel diverged from sequential:\nseq: %+v\npar: %+v", seed, seq, par)
				}
			})
		}
	}
}

// Distinct seeds must actually change the simulation — otherwise the
// seed sweep above proves nothing.
func TestSeedsProduceDistinctRuns(t *testing.T) {
	a := runSuiteMode(t, "bfs", secmem.PSSM(0), 1, 1)
	b := runSuiteMode(t, "bfs", secmem.PSSM(0), 2, 1)
	if a == b {
		t.Fatal("seeds 1 and 2 produced identical runs")
	}
}
