package harness

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/plutus-gpu/plutus/internal/geom"
	"github.com/plutus-gpu/plutus/internal/gpusim"
	"github.com/plutus-gpu/plutus/internal/secmem"
	"github.com/plutus-gpu/plutus/internal/stats"
	"github.com/plutus-gpu/plutus/internal/trace"
	"github.com/plutus-gpu/plutus/internal/workload"
)

// captureScenario captures bench under exactly the configuration a
// Runner with (ProtectedBytes, MaxInstructions) would build, so a
// harness replay of the trace is comparable to a harness live run.
func captureScenario(t *testing.T, bench string, insts uint64) string {
	t.Helper()
	sc := secmem.Plutus(0)
	cfg := gpusim.ScaledConfig(sc)
	cfg.Sec.ProtectedBytes = 128 << 20
	cfg.MaxInstructions = insts
	wl, err := workload.Get(bench)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := trace.Capture(cfg, wl, &buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "cap.pltr")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestTraceWorkloadThroughHarness: a trace replay driven through the
// Runner (cache, false-alarm gate, report rendering) matches the live
// run of its capture source in everything but the benchmark name.
func TestTraceWorkloadThroughHarness(t *testing.T) {
	const insts = 3000
	sc := secmem.Plutus(0)

	live := NewRunner(Config{MaxInstructions: insts, Benchmarks: []string{"scn-phase"}})
	ref, err := live.Run("scn-phase", sc)
	if err != nil {
		t.Fatal(err)
	}

	path := captureScenario(t, "scn-phase", insts)
	bench := "trace:" + path
	r := NewRunner(Config{MaxInstructions: insts, Benchmarks: []string{bench}})
	st, err := r.Run(bench, sc)
	if err != nil {
		t.Fatal(err)
	}
	if st.Benchmark != bench {
		t.Errorf("replay stats carry benchmark %q, want %q", st.Benchmark, bench)
	}
	a, b := *ref, *st
	a.Benchmark, b.Benchmark = "", ""
	if a != b {
		t.Errorf("harness trace replay diverged from live run:\nlive:   %+v\nreplay: %+v", a, b)
	}

	// Same cell again: must coalesce into the cache, not re-simulate.
	if _, err := r.Run(bench, sc); err != nil {
		t.Fatal(err)
	}
	if m := r.Metrics(); m.Executions != 1 {
		t.Errorf("trace run not cached: %d executions for %d lookups", m.Executions, m.Lookups)
	}

	// Trace cells must not collide with suite cells or with other traces.
	k := r.CacheKey(bench, sc, 0)
	if other := r.CacheKey("trace:/elsewhere/cap.pltr", sc, 0); other == k {
		t.Errorf("distinct trace paths share cache key %q", k)
	}
	if !strings.Contains(k, bench) {
		t.Errorf("cache key %q does not pin the trace path", k)
	}
	if p := r.SnapshotPath(bench, sc); strings.ContainsAny(filepath.Base(p), "|/") {
		t.Errorf("snapshot filename %q keeps filesystem-hostile characters", filepath.Base(p))
	}
}

// TestTamperDetectionOnScenarioTraces is the attack-under-replay
// oracle: for every scenario family, a captured trace re-run under an
// attack plan applies the full schedule and the integrity scheme never
// lets a tainted read through silently — detection behaviour survives
// the capture/replay round trip.
func TestTamperDetectionOnScenarioTraces(t *testing.T) {
	const insts = 6000
	for _, family := range workload.ScenarioNames() {
		family := family
		t.Run(family, func(t *testing.T) {
			path := captureScenario(t, family, insts)
			bench := "trace:" + path
			r := NewRunner(Config{
				MaxInstructions: insts,
				Benchmarks:      []string{bench},
				TamperPlan:      testPlan(t),
			})
			st, err := r.Run(bench, secmem.Plutus(0))
			if err != nil {
				t.Fatal(err)
			}
			if st.Sec.TamperInjected != 20 {
				t.Errorf("injected %d ops, want all 20", st.Sec.TamperInjected)
			}
			if n := st.Sec.Verdicts.Count(stats.VerdictSilentCorruption); n != 0 {
				t.Errorf("%d silent corruptions on an integrity scheme", n)
			}
			if family == "scn-attackload" && st.Sec.TaintedReads == 0 {
				t.Error("probe-heavy scenario never observed a tainted sector — the oracle is vacuous")
			}
		})
	}
}

// TestTraceAddressPastProtectedSpaceFails: a trace whose warps load at
// 3 GiB and store at 5 GiB, past the scaled GPU's 1 GiB protected
// space, fails its run with an error instead of panicking in the
// metadata structures.
func TestTraceAddressPastProtectedSpaceFails(t *testing.T) {
	var buf bytes.Buffer
	tw, err := trace.NewWriter(&buf, trace.Header{Warps: 2})
	if err != nil {
		t.Fatal(err)
	}
	tw.Append(trace.Record{Warp: 0, Kind: gpusim.Load, Addrs: []geom.Addr{3 << 30}})
	tw.Append(trace.Record{Warp: 1, Kind: gpusim.Store, Addrs: []geom.Addr{5 << 30}})
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "oob.pltr")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	bench := "trace:" + path
	r := NewRunner(Config{MaxInstructions: 100, Benchmarks: []string{bench}})
	for _, sc := range []secmem.Config{secmem.Baseline(0), secmem.PSSM(0), secmem.Plutus(0)} {
		if _, err := r.RunSeeded(bench, sc, 0); err == nil || !strings.Contains(err.Error(), "past the protected space") {
			t.Errorf("%s: err = %v, want an address past the protected space", sc.Scheme, err)
		}
	}
}
