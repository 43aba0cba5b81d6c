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
// sequential run may make at most one heap allocation per four
// instructions. What is left is footprint: the memory image's index
// pages and slab chunks and the metadata stores' pages, each allocated
// once per range first touched. The workload reuses one address buffer
// per warp, and the memory-request path allocates nothing once its free
// lists and MSHR slabs are warm.
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
				if per > 0.25 {
					t.Fatalf("%.2f allocations per warp-instruction between instructions %d and %d, want at most 0.25", per, n, 2*n)
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

// TestRestoreAllocationFollowsSnapshot: restoring a snapshot allocates a
// small multiple of the snapshot's length, so a restore costs about what
// the state it carries does. The snapshot is the middle one of the 29
// that scn-multitenant under nosec takes at a 2,000-cycle cadence
// (6.6 MB); its memory image fills about a tenth of the 4,096-sector
// pages it touches. The restored run finishes at the uninterrupted run's
// statistics although the snapshot's bytes are overwritten as soon as
// ResumeSnapshot returns.
func TestRestoreAllocationFollowsSnapshot(t *testing.T) {
	const mid = 14
	sc, err := secmem.ByName("nosec", 128<<20)
	if err != nil {
		t.Fatal(err)
	}
	cfg := gpusim.ScaledConfig(sc)
	cfg.CheckpointEvery = 2000
	newWorkload := func() gpusim.Workload {
		wl, err := workload.GetSeeded("scn-multitenant", 1)
		if err != nil {
			t.Fatal(err)
		}
		return wl
	}
	g, err := gpusim.New(cfg, newWorkload())
	if err != nil {
		t.Fatal(err)
	}
	var snap []byte
	var taken int
	ref, err := g.RunWithCheckpoints(func(_ uint64, data []byte) error {
		if taken == mid {
			snap = data
		}
		taken++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if snap == nil {
		t.Fatalf("the run took %d snapshots, want more than %d", taken, mid)
	}

	wl := newWorkload()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	r, err := gpusim.ResumeSnapshot(cfg, wl, snap)
	runtime.ReadMemStats(&ms)
	if err != nil {
		t.Fatal(err)
	}
	got := ms.TotalAlloc - before
	t.Logf("restoring snapshot %d of %d (%d B) allocated %d B, %.1f times its length",
		mid, taken, len(snap), got, float64(got)/float64(len(snap)))
	if got > 4*uint64(len(snap)) {
		t.Fatalf("restoring a %d B snapshot allocated %d B, want at most 4 times its length", len(snap), got)
	}

	for i := range snap {
		snap[i] = 0xff
	}
	st, err := r.RunWithCheckpoints(nil)
	if err != nil {
		t.Fatal(err)
	}
	if *st != *ref {
		t.Fatalf("restored run diverges from the uninterrupted run:\nref: %+v\ngot: %+v", ref, st)
	}
}
