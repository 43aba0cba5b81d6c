package gpusim_test

import (
	"runtime"
	"testing"

	"github.com/plutus-gpu/plutus/internal/gpusim"
	"github.com/plutus-gpu/plutus/internal/secmem"
	"github.com/plutus-gpu/plutus/internal/workload"
)

// TestRunAllocsPerInstruction is the whole simulator's dynamic
// allocation gate: between its n-th and 2n-th issued warp-instruction a
// sequential run may make at most one heap allocation per instruction.
// What is left at that rate is the workload's own address slices
// (Workload.Next hands out a fresh slice per memory instruction) and
// memory-image pages; the memory-request path allocates nothing once its
// free lists and MSHR slabs are warm.
//
// Two things are kept out of the window because they are not
// per-request allocation. The benchmarks run with 40 warps instead of
// their 960, so the ramp during which the record lists and the event
// queues' node slabs grow to the run's peak concurrency ends within the
// first n instructions. And the window closes at an issue, before the
// end-of-run flush, which writes back every dirty L2 sector at once.
func TestRunAllocsPerInstruction(t *testing.T) {
	const n = 4000
	for _, bench := range []string{"bfs", "histo"} {
		for _, scheme := range []string{"nosec", "pssm", "plutus", "mgx", "ssm"} {
			t.Run(bench+"/"+scheme, func(t *testing.T) {
				per := windowMallocs(t, bench, scheme, n)
				t.Logf("%.2f allocations per warp-instruction", per)
				if per > 1 {
					t.Fatalf("%.2f allocations per warp-instruction between instructions %d and %d, want at most 1", per, n, 2*n)
				}
			})
		}
	}
}

// windowMallocs runs bench under scheme for 2n warp-instructions on the
// scaled GPU and returns the heap allocations per instruction made
// between the n-th and the 2n-th issue.
func windowMallocs(t *testing.T, bench, scheme string, n uint64) float64 {
	t.Helper()
	sc, err := secmem.ByName(scheme, 128<<20)
	if err != nil {
		t.Fatal(err)
	}
	spec, ok := workload.Describe(bench)
	if !ok {
		t.Fatalf("no workload %q", bench)
	}
	spec.Warps = 40
	wl, err := workload.NewBench(spec)
	if err != nil {
		t.Fatal(err)
	}
	cfg := gpusim.ScaledConfig(sc)
	cfg.MaxInstructions = 2 * n
	cfg.Workers = 1
	g, err := gpusim.New(cfg, wl)
	if err != nil {
		t.Fatal(err)
	}
	var ms runtime.MemStats
	var issued, from, to uint64
	g.SetIssueTap(func(int, gpusim.Inst) {
		switch issued++; issued {
		case n:
			runtime.ReadMemStats(&ms)
			from = ms.Mallocs
		case 2 * n:
			runtime.ReadMemStats(&ms)
			to = ms.Mallocs
		}
	})
	if st := g.Run(); st.Instructions != 2*n {
		t.Fatalf("ran %d instructions, want %d", st.Instructions, 2*n)
	}
	return float64(to-from) / float64(n)
}
