package harness

import (
	"bytes"
	"errors"
	"os"
	"runtime"
	"testing"

	"github.com/plutus-gpu/plutus/internal/checkpoint"
	"github.com/plutus-gpu/plutus/internal/secmem"
	"github.com/plutus-gpu/plutus/internal/stats"
	"github.com/plutus-gpu/plutus/internal/tamper"
)

// testPlan is the attack schedule the harness-level tests arm: ciphertext
// flips plus a counter rollback over the low range of the global
// protected space, early enough that the stream workloads revisit the
// targets.
const testPlanText = `seed 6
at cycle=1000 attack=sectorflip range=0x0:0x100000 count=12
at cycle=1500 attack=bitflip range=0x0:0x100000 count=4
at cycle=2000 attack=ctr-rollback range=0x0:0x100000 count=4
`

func testPlan(t *testing.T) *tamper.Plan {
	t.Helper()
	p, err := tamper.Parse(testPlanText)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// frontierSchemes are the representatives of the three scheme families
// the harness-level attack tests cover: the full counter+MAC+tree
// design, the derived-version MGX variant, and the secret-sharing
// datapath with no DRAM metadata at all.
func frontierSchemes(t *testing.T) []secmem.Config {
	t.Helper()
	var out []secmem.Config
	for _, name := range []string{"plutus", "mgx", "ssm"} {
		sc, err := secmem.ByName(name, 0)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, sc)
	}
	return out
}

// planFor narrows the shared test plan to the attack kinds a scheme has
// DRAM-resident targets for (ssm keeps no counters to roll back) and
// returns it with the number of ops it expands to.
func planFor(t *testing.T, sc secmem.Config) (*tamper.Plan, uint64) {
	t.Helper()
	p := testPlan(t).FilterFor(sc)
	var n uint64
	for _, d := range p.Directives {
		if d.IsRange {
			n += uint64(d.Count)
		} else {
			n++
		}
	}
	return p, n
}

// TestTamperRunDetects: an attacked full-pipeline run applies the whole
// schedule, and every integrity scheme — MAC+BMT, derived-version, and
// share-reconstruction alike — never lets a tainted read through
// silently.
func TestTamperRunDetects(t *testing.T) {
	for _, sc := range frontierSchemes(t) {
		t.Run(sc.Scheme, func(t *testing.T) {
			plan, want := planFor(t, sc)
			r := NewRunner(Config{
				MaxInstructions: 6000,
				Benchmarks:      []string{"stream"},
				TamperPlan:      plan,
			})
			st, err := r.Run("stream", sc)
			if err != nil {
				t.Fatal(err)
			}
			if st.Sec.TamperInjected != want {
				t.Errorf("injected %d ops, want all %d", st.Sec.TamperInjected, want)
			}
			if n := st.Sec.Verdicts.Count(stats.VerdictSilentCorruption); n != 0 {
				t.Errorf("%d silent corruptions on an integrity scheme", n)
			}
		})
	}
}

// TestTamperParallelMatchesSequential: tamper ops land at epoch
// boundaries with every shard parked, so a run given every core must
// replay the attacked run bit-identically to a sequential one (a runner
// at Parallelism GOMAXPROCS) — for each scheme family.
func TestTamperParallelMatchesSequential(t *testing.T) {
	for _, sc := range frontierSchemes(t) {
		t.Run(sc.Scheme, func(t *testing.T) {
			plan, _ := planFor(t, sc)
			run := func(parallelism int) string {
				r := NewRunner(Config{
					MaxInstructions: 6000,
					Benchmarks:      []string{"stream"},
					Parallelism:     parallelism,
					TamperPlan:      plan,
				})
				st, err := r.Run("stream", sc)
				if err != nil {
					t.Fatal(err)
				}
				var js bytes.Buffer
				if err := WriteRunJSON(&js, st); err != nil {
					t.Fatal(err)
				}
				return js.String()
			}
			if seq, par := run(runtime.GOMAXPROCS(0)), run(1); seq != par {
				t.Errorf("attacked run diverges between sequential and parallel partitions:\nseq: %s\npar: %s", seq, par)
			}
		})
	}
}

// TestTamperResumeByteIdentical extends the harness replay guarantee to
// attacked runs: a run preempted at a checkpoint mid-attack and resumed
// by a fresh Runner (which re-arms the plan; the snapshot records only
// the applied-op index) renders byte-identical reports to an
// uninterrupted attacked run.
func TestTamperResumeByteIdentical(t *testing.T) {
	for _, sc := range frontierSchemes(t) {
		t.Run(sc.Scheme, func(t *testing.T) {
			plan, _ := planFor(t, sc)
			cfg := func(dir string, resume bool) Config {
				c := ckptHarnessCfg(dir, resume)
				c.TamperPlan = plan
				return c
			}
			render := func(r *Runner) string {
				st, err := r.Run("stream", sc)
				if err != nil {
					t.Fatal(err)
				}
				var js bytes.Buffer
				if err := WriteRunJSON(&js, st); err != nil {
					t.Fatal(err)
				}
				return js.String() + "\n" + Report(st, sc)
			}

			ref := render(NewRunner(cfg(t.TempDir(), false)))

			dir := t.TempDir()
			preempted := NewRunner(cfg(dir, false))
			if _, err := preempted.RunSeededContext(newCancelInFlight(), "stream", sc, 0); !errors.Is(err, checkpoint.ErrPreempted) {
				t.Fatalf("err = %v, want ErrPreempted", err)
			}
			if _, err := os.Stat(preempted.SnapshotPathSeeded("stream", sc, 0)); err != nil {
				t.Fatalf("no snapshot left behind: %v", err)
			}
			if got := render(NewRunner(cfg(dir, true))); got != ref {
				t.Errorf("attacked resume diverges:\nref:\n%s\nresumed:\n%s", ref, got)
			}
		})
	}
}

// TestFrontierScenarioFamilies drives the new scheme families through
// the four trace scenario families under attack: the whole schedule is
// applied, nothing slips through silently, and two completely fresh
// attacked runs render byte-identical JSON reports.
func TestFrontierScenarioFamilies(t *testing.T) {
	families := []string{"scn-dnn-infer", "scn-multitenant", "scn-phase", "scn-attackload"}
	for _, sc := range frontierSchemes(t) {
		if sc.Scheme == "plutus" {
			continue // covered by the existing tamper suite
		}
		for _, fam := range families {
			sc, fam := sc, fam
			t.Run(sc.Scheme+"/"+fam, func(t *testing.T) {
				plan, want := planFor(t, sc)
				run := func() string {
					r := NewRunner(Config{
						MaxInstructions: 4000,
						Benchmarks:      []string{fam},
						TamperPlan:      plan,
					})
					st, err := r.Run(fam, sc)
					if err != nil {
						t.Fatal(err)
					}
					if st.Sec.TamperInjected != want {
						t.Errorf("injected %d ops, want all %d", st.Sec.TamperInjected, want)
					}
					if n := st.Sec.Verdicts.Count(stats.VerdictSilentCorruption); n != 0 {
						t.Errorf("%d silent corruptions on an integrity scheme", n)
					}
					var js bytes.Buffer
					if err := WriteRunJSON(&js, st); err != nil {
						t.Fatal(err)
					}
					return js.String()
				}
				if a, b := run(), run(); a != b {
					t.Errorf("two fresh attacked runs diverge:\nfirst:  %s\nsecond: %s", a, b)
				}
			})
		}
	}
}

// TestTamperPlanCacheKey: runs under different plans (or none) must not
// share cache entries, while identical plans must.
func TestTamperPlanCacheKey(t *testing.T) {
	benign := NewRunner(Config{Benchmarks: []string{"stream"}})
	attacked := NewRunner(Config{Benchmarks: []string{"stream"}, TamperPlan: testPlan(t)})
	sc := secmem.Plutus(0)
	sc.ProtectedBytes = benign.Config().ProtectedBytes

	kBenign := benign.key("stream", sc, 0)
	kAttack := attacked.key("stream", sc, 0)
	if kBenign == kAttack {
		t.Errorf("benign and attacked runs share cache key %q", kBenign)
	}
	other, err := tamper.Parse("seed 7\nat cycle=1 attack=bitflip addr=0x0 bit=0\n")
	if err != nil {
		t.Fatal(err)
	}
	kOther := NewRunner(Config{Benchmarks: []string{"stream"}, TamperPlan: other}).key("stream", sc, 0)
	if kOther == kAttack {
		t.Errorf("different plans share cache key %q", kAttack)
	}
	same := NewRunner(Config{Benchmarks: []string{"stream"}, TamperPlan: testPlan(t)}).key("stream", sc, 0)
	if same != kAttack {
		t.Errorf("identical plans disagree on cache key: %q vs %q", same, kAttack)
	}
}
