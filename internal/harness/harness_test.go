package harness

import (
	"bytes"
	"runtime"
	"strings"
	"sync"
	"testing"

	"github.com/plutus-gpu/plutus/internal/counters"
	"github.com/plutus-gpu/plutus/internal/secmem"
	"github.com/plutus-gpu/plutus/internal/stats"
)

// tinyConfig keeps harness tests fast: two benchmarks, small budget.
func tinyConfig() Config {
	return Config{
		ProtectedBytes:  128 << 20,
		MaxInstructions: 3000,
		Benchmarks:      []string{"bfs", "hotspot"},
		Parallelism:     4,
	}
}

func TestRunnerCaches(t *testing.T) {
	r := NewRunner(tinyConfig())
	a, err := r.Run("bfs", secmem.PSSM(128<<20))
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Run("bfs", secmem.PSSM(128<<20))
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("identical runs not served from cache")
	}
}

// Concurrent requests for one (benchmark, scheme) pair must coalesce
// into a single simulation: every caller gets the same *stats.Stats
// (each execution allocates a fresh one, so pointer identity proves the
// run happened exactly once). The pre-singleflight cache could run the
// same pair several times under contention.
func TestRunnerCoalescesConcurrentRuns(t *testing.T) {
	r := NewRunner(tinyConfig())
	const callers = 8
	got := make([]*stats.Stats, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st, err := r.Run("bfs", secmem.Plutus(128<<20))
			if err != nil {
				t.Error(err)
				return
			}
			got[i] = st
		}(i)
	}
	wg.Wait()
	for i := 1; i < callers; i++ {
		if got[i] != got[0] {
			t.Fatalf("caller %d got a distinct result — simulation ran more than once", i)
		}
	}
}

// A cell renders the same WriteRunJSON bytes whatever core share its
// runner gives it: Parallelism 1 hands the simulation every core, while
// Parallelism GOMAXPROCS runs it sequentially.
func TestRunnerParallelMatchesSequential(t *testing.T) {
	render := func(parallelism int) string {
		cfg := tinyConfig()
		cfg.Parallelism = parallelism
		st, err := NewRunner(cfg).Run("bfs", secmem.Plutus(128<<20))
		if err != nil {
			t.Fatal(err)
		}
		var js bytes.Buffer
		if err := WriteRunJSON(&js, st); err != nil {
			t.Fatal(err)
		}
		return js.String()
	}
	if seq, par := render(runtime.GOMAXPROCS(0)), render(1); seq != par {
		t.Fatalf("harness run diverged between core shares:\nseq: %s\npar: %s", seq, par)
	}
}

// Each of Parallelism concurrent simulations gets an equal share of the
// processors, and at least one: a runner that fills every core runs its
// cells sequentially.
func TestCoreShare(t *testing.T) {
	for _, tc := range []struct{ procs, parallelism, want int }{
		{1, 1, 1},
		{1, 4, 1},
		{2, 1, 2},
		{2, 2, 1},
		{2, 8, 1},
		{4, 1, 4},
		{4, 2, 2},
		{4, 3, 1},
		{4, 4, 1},
		{8, 3, 2},
		{16, 1, 16},
	} {
		if got := coreShare(tc.procs, tc.parallelism); got != tc.want {
			t.Errorf("coreShare(%d procs, parallelism %d) = %d, want %d", tc.procs, tc.parallelism, got, tc.want)
		}
	}
}

// The run key carries a scheme's name, not its fields, so a Runner keeps
// each name to one configuration: a registered name to its registered
// configuration from the start, any other name to the first
// configuration run under it. A second configuration under a known name
// fails instead of being served the first one's cached stats.
func TestRunnerRefusesSchemeAliases(t *testing.T) {
	cfg := tinyConfig()
	cfg.MaxInstructions = 1000
	r := NewRunner(cfg)
	pssm, err := r.Run("bfs", secmem.PSSM(0))
	if err != nil {
		t.Fatal(err)
	}
	small := secmem.PSSM(0)
	small.MetaCacheBytes = 1 << 10
	if _, err := r.Run("bfs", small); err == nil || !strings.Contains(err.Error(), `"pssm"`) {
		t.Fatalf("pssm with 1 KiB metadata caches: err = %v, want a refusal naming \"pssm\"", err)
	}
	if st, err := r.Run("bfs", secmem.PSSM(0)); err != nil || st != pssm {
		t.Fatalf("the registered pssm is no longer served from the cache: %v", err)
	}

	adaptive := secmem.PlutusCompact(0, counters.Compact3BitAdaptive)
	adaptive.CompactThreshold = 4
	if _, err := NewRunner(cfg).Run("bfs", adaptive); err == nil || !strings.Contains(err.Error(), `"plutus-C-3bit-adaptive"`) {
		t.Fatalf("first run of a changed plutus-C-3bit-adaptive: err = %v, want a refusal naming it", err)
	}

	// Two new names, each first run from two goroutines at once.
	mc1, mc4 := small, secmem.PSSM(0)
	mc1.Scheme = "pssm-mc1"
	mc4.Scheme, mc4.MetaCacheBytes = "pssm-mc4", 4<<10
	got := make([]*stats.Stats, 4)
	var wg sync.WaitGroup
	for i, sc := range []secmem.Config{mc1, mc4, mc1, mc4} {
		wg.Add(1)
		go func(i int, sc secmem.Config) {
			defer wg.Done()
			st, err := r.Run("bfs", sc)
			if err != nil {
				t.Error(err)
				return
			}
			got[i] = st
		}(i, sc)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	if got[0] != got[2] || got[1] != got[3] {
		t.Error("concurrent runs of one new name did not share one simulation")
	}
	if *got[0] == *got[1] || *got[0] == *pssm {
		t.Error("1 KiB, 2 KiB and 4 KiB metadata caches ran to identical stats")
	}
	mc1.MetaCacheBytes = 8 << 10
	if _, err := r.Run("bfs", mc1); err == nil || !strings.Contains(err.Error(), `"pssm-mc1"`) {
		t.Fatalf("pssm-mc1 under a second configuration: err = %v, want a refusal naming it", err)
	}
	if m := r.Metrics(); m.Executions != 3 {
		t.Errorf("Metrics.Executions = %d, want 3 (refused runs must not simulate)", m.Executions)
	}
}

func TestRunnerUnknownBenchmark(t *testing.T) {
	r := NewRunner(tinyConfig())
	if _, err := r.Run("nope", secmem.PSSM(128<<20)); err == nil {
		t.Fatal("unknown benchmark did not error")
	}
}

func TestFigureRegistryResolves(t *testing.T) {
	figs := Figures()
	if len(figs) != 16 {
		t.Fatalf("expected 16 experiments, have %d", len(figs))
	}
	for _, f := range figs {
		got, err := FigureByID(f.ID)
		if err != nil || got.Title != f.Title {
			t.Errorf("FigureByID(%q) broken: %v", f.ID, err)
		}
	}
	if _, err := FigureByID("fig99"); err == nil {
		t.Error("unknown figure id resolved")
	}
}

func TestEq1TableIsSimulationFree(t *testing.T) {
	r := NewRunner(tinyConfig())
	out, err := Eq1Table(r)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Plutus uses 3") || !strings.Contains(out, "3 of 4") {
		t.Errorf("Eq. 1 table missing expected content:\n%s", out)
	}
}

func TestFig10Mix(t *testing.T) {
	r := NewRunner(tinyConfig())
	out, err := Fig10(r)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "bfs") || !strings.Contains(out, "read%") {
		t.Errorf("Fig10 output malformed:\n%s", out)
	}
}

func TestFig9ValueReuseOrdering(t *testing.T) {
	// The masked scenario must pass at least as often as the unmasked
	// 3-of-4, which must pass at least as often as all-8 (thresholds
	// strictly relax left to right).
	strict, err := valueReuseRate("bfs", valueCache(512, 0, 4), 2000)
	if err != nil {
		t.Fatal(err)
	}
	loose, err := valueReuseRate("bfs", valueCache(512, 0, 3), 2000)
	if err != nil {
		t.Fatal(err)
	}
	masked, err := valueReuseRate("bfs", valueCache(512, 4, 3), 2000)
	if err != nil {
		t.Fatal(err)
	}
	if loose < strict {
		t.Errorf("3-of-4 rate %.3f below all-8 rate %.3f", loose, strict)
	}
	if masked < loose-0.02 {
		t.Errorf("masked rate %.3f below unmasked %.3f", masked, loose)
	}
	if loose == 0 {
		t.Error("bfs should show nonzero value reuse")
	}
}

func TestFig6EndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	r := NewRunner(tinyConfig())
	out, err := Fig6(r)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "geomean") || !strings.Contains(out, "pssm") {
		t.Errorf("Fig6 output malformed:\n%s", out)
	}
	// PSSM must be below 1.0 (security costs performance).
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "geomean") {
			fields := strings.Fields(line)
			if len(fields) < 2 || !strings.HasPrefix(fields[1], "0.") {
				t.Errorf("PSSM geomean should be < 1.0: %q", line)
			}
		}
	}
}

func TestCompareSchemes(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	r := NewRunner(tinyConfig())
	sp, err := r.CompareSchemes(secmem.PSSM(128<<20), secmem.Plutus(128<<20))
	if err != nil {
		t.Fatal(err)
	}
	if sp.Mean <= 0 || sp.MaxBench == "" {
		t.Errorf("speedup malformed: %+v", sp)
	}
}

func TestWriteCSV(t *testing.T) {
	r := NewRunner(tinyConfig())
	var buf strings.Builder
	if err := r.WriteCSV(&buf, []secmem.Config{secmem.Baseline(128 << 20), secmem.PSSM(128 << 20)}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	// header + 2 benchmarks × 2 schemes
	if len(lines) != 5 {
		t.Fatalf("CSV has %d lines, want 5:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "benchmark,scheme,instructions") {
		t.Errorf("bad CSV header: %q", lines[0])
	}
	for _, l := range lines[1:] {
		if got := strings.Count(l, ","); got != strings.Count(lines[0], ",") {
			t.Errorf("ragged CSV row: %q", l)
		}
	}
}
