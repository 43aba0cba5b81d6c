package plutus_test

import (
	"runtime"
	"testing"
	"time"

	"github.com/plutus-gpu/plutus/internal/gpusim"
	"github.com/plutus-gpu/plutus/internal/secmem"
	"github.com/plutus-gpu/plutus/internal/stats"
	"github.com/plutus-gpu/plutus/internal/workload"
)

// protected is the per-partition protected range of the paper's
// configuration (4 GiB over 32 partitions).
const protected = 128 << 20

// runPartitionMode executes one full bfs/Plutus simulation on the scaled
// 8-partition GPU directly (no harness cache — every call simulates),
// sequentially or with one worker per core.
func runPartitionMode(tb testing.TB, parallel bool, insts uint64) stats.Stats {
	tb.Helper()
	wl, err := workload.Get("bfs")
	if err != nil {
		tb.Fatal(err)
	}
	cfg := gpusim.ScaledConfig(secmem.Plutus(protected))
	cfg.Sec.ProtectedBytes = protected
	cfg.MaxInstructions = insts
	if parallel {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	g, err := gpusim.New(cfg, wl)
	if err != nil {
		tb.Fatal(err)
	}
	return *g.Run()
}

// BenchmarkPartitionMode compares sequential and parallel partition
// execution on the 8-partition configuration. With GOMAXPROCS ≥ 4 the
// parallel mode's wall-clock time per run should be well under 1/1.5 of
// sequential (compare the two sub-benchmarks' ns/op); on a single CPU
// both sub-benchmarks run sequentially and match.
func BenchmarkPartitionMode(b *testing.B) {
	const insts = 8000
	for _, mode := range []struct {
		name     string
		parallel bool
	}{{"sequential", false}, {"parallel", true}} {
		b.Run(mode.name, func(b *testing.B) {
			var cycles uint64
			for i := 0; i < b.N; i++ {
				st := runPartitionMode(b, mode.parallel, insts)
				cycles = st.Cycles
			}
			b.ReportMetric(float64(cycles), "simCycles")
		})
	}
}

// TestParallelSpeedup asserts the parallel mode actually buys wall-clock
// time when cores are available. The issue's ≥1.5× target is measured by
// BenchmarkPartitionMode; the test gate is slightly looser (1.2×) so a
// noisy shared CI runner doesn't flake, while still catching any
// regression to effectively-serial execution.
func TestParallelSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive")
	}
	if raceEnabled {
		t.Skip("race instrumentation distorts the timing ratio")
	}
	if runtime.GOMAXPROCS(0) < 4 {
		t.Skipf("needs GOMAXPROCS >= 4, have %d", runtime.GOMAXPROCS(0))
	}
	const insts = 8000
	runPartitionMode(t, false, insts) // warm up allocator and caches
	measure := func(parallel bool) time.Duration {
		best := time.Duration(1<<63 - 1)
		for i := 0; i < 3; i++ {
			start := time.Now() //simlint:ignore detrand measures host wall time of the run itself, never enters sim state
			runPartitionMode(t, parallel, insts)
			if d := time.Since(start); d < best { //simlint:ignore detrand same wall-time measurement as above
				best = d
			}
		}
		return best
	}
	seq := measure(false)
	par := measure(true)
	speedup := float64(seq) / float64(par)
	t.Logf("sequential %v, parallel %v, speedup %.2fx", seq, par, speedup)
	if speedup < 1.2 {
		t.Errorf("parallel speedup %.2fx below 1.2x (seq %v, par %v)", speedup, seq, par)
	}
}
