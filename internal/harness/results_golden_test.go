package harness

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/plutus-gpu/plutus/internal/secmem"
	"github.com/plutus-gpu/plutus/internal/workload"
)

// resultsDir holds the committed per-figure reports that cmd/experiments
// writes. The tests below pin every one of them: regenerating a figure
// from scratch must reproduce the committed bytes exactly, modulo the
// wall-clock part of the footer.
const resultsDir = "../../results"

// resultsBudget is the instruction budget the committed results were
// generated with (cmd/experiments' default). The tests verify the
// committed footers actually claim this budget, so the suite cannot
// silently compare runs under different budgets.
const resultsBudget = 20000

// timingRE matches the wall-clock half of the footer, the only part of
// a figure file that is not deterministic.
var timingRE = regexp.MustCompile(`; generated in [0-9.]+s\)`)

// budgetRE extracts the instruction budget a committed file claims.
var budgetRE = regexp.MustCompile(`\(budget: ([0-9]+) instructions/run`)

// normalizeFigure strips the timing suffix so regenerated and committed
// bodies can be byte-compared.
func normalizeFigure(s string) string { return timingRE.ReplaceAllString(s, ")") }

// resultsConfig mirrors cmd/experiments' default configuration exactly;
// the goldens are only reproducible under the config that wrote them.
func resultsConfig() Config {
	cfg := DefaultConfig()
	cfg.MaxInstructions = resultsBudget
	cfg.Benchmarks = workload.SuiteNames()
	return cfg
}

// readGolden loads a committed figure file and checks its budget line.
func readGolden(t *testing.T, id string) string {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(resultsDir, id+".txt"))
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	m := budgetRE.FindStringSubmatch(string(raw))
	if m == nil {
		t.Fatalf("%s.txt has no budget footer", id)
	}
	if m[1] != fmt.Sprint(resultsBudget) {
		t.Fatalf("%s.txt was generated at budget %s, suite expects %d", id, m[1], resultsBudget)
	}
	return string(raw)
}

// regenFigureBody regenerates one figure on r in cmd/experiments' exact
// on-disk format (Runner.FigureFile). The wall-clock half of the footer
// is cosmetic and normalized away before every comparison; the test
// writer pins it to 0.0s so a rewritten file is fully deterministic
// (cmd/experiments records the real elapsed time when it regenerates
// the same files).
func regenFigureBody(r *Runner, f Figure) (string, error) {
	out, err := f.Run(r)
	if err != nil {
		return "", fmt.Errorf("%s: %w", f.ID, err)
	}
	return r.FigureFile(f, out, 0), nil
}

// A figure's file states the budget the runner actually simulated: a
// zero MaxInstructions runs at the default, and the footer says so.
func TestFigureFileStatesNormalizedBudget(t *testing.T) {
	f, err := FigureByID("eq1")
	if err != nil {
		t.Fatal(err)
	}
	got := NewRunner(Config{MaxInstructions: 0}).FigureFile(f, "table\n", 1500*time.Millisecond)
	want := f.Title + "\n\ntable\n\n(budget: 20000 instructions/run; generated in 1.5s)\n"
	if got != want {
		t.Errorf("FigureFile = %q, want %q", got, want)
	}
}

// diffFigureGolden regenerates one figure and byte-diffs it against the
// committed golden text, returning a descriptive error on any drift.
// Split from the *testing.T path so the suite itself can be tested: a
// deliberately staled golden must produce an error here, proving the
// pin actually bites.
func diffFigureGolden(r *Runner, f Figure, golden string) error {
	body, err := regenFigureBody(r, f)
	if err != nil {
		return err
	}
	if got, want := normalizeFigure(body), normalizeFigure(golden); got != want {
		return fmt.Errorf("%s drifted from results/%s.txt (regenerate with -update if intentional):\n got:\n%s\nwant:\n%s",
			f.ID, f.ID, got, want)
	}
	return nil
}

// checkFigureGolden pins one figure against results/<id>.txt. With
// -update it rewrites the committed file first.
func checkFigureGolden(t *testing.T, r *Runner, f Figure) {
	t.Helper()
	if *update {
		body, err := regenFigureBody(r, f)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(resultsDir, f.ID+".txt"), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := diffFigureGolden(r, f, readGolden(t, f.ID)); err != nil {
		t.Error(err)
	}
}

// TestStaleGoldenFails is the suite's negative control: a golden whose
// bytes do not match the regenerated figure must be reported as drift.
// Without this, a bug that made diffFigureGolden vacuously pass (say,
// normalizing away the whole body) would silently disarm every pin.
func TestStaleGoldenFails(t *testing.T) {
	f, err := FigureByID("eq1")
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(resultsConfig())
	stale := readGolden(t, "eq1") + "a stale trailing line\n"
	if err := diffFigureGolden(r, f, stale); err == nil {
		t.Fatal("diffFigureGolden accepted a stale golden")
	} else if !strings.Contains(err.Error(), "drifted from results/eq1.txt") {
		t.Fatalf("drift error lost its provenance: %v", err)
	}
	if err := diffFigureGolden(r, f, readGolden(t, "eq1")); err != nil {
		t.Fatalf("pristine golden rejected: %v", err)
	}
}

// TestFrontierCoversRegistry extends the registry↔results bijection to
// the frontier table: the committed results/frontier.txt must carry
// exactly one row per registered scheme, so registering a scheme
// without regenerating the golden fails here even when the slow
// full-figure suite is skipped.
func TestFrontierCoversRegistry(t *testing.T) {
	golden := readGolden(t, "frontier")
	rows := map[string]int{}
	for _, line := range strings.Split(golden, "\n") {
		fields := strings.Fields(line)
		if len(fields) > 0 {
			rows[fields[0]]++
		}
	}
	for _, name := range secmem.Names() {
		if n := rows[name]; n != 1 {
			t.Errorf("results/frontier.txt has %d rows for scheme %q, want exactly 1 (regenerate with -update)", n, name)
		}
	}
}

// TestResultsCoverage asserts the committed results directory and the
// figure registry are in bijection: every figure has a pinned golden
// and no orphaned golden survives a figure's removal.
func TestResultsCoverage(t *testing.T) {
	entries, err := os.ReadDir(resultsDir)
	if err != nil {
		t.Fatal(err)
	}
	onDisk := map[string]bool{}
	for _, e := range entries {
		if filepath.Ext(e.Name()) == ".txt" {
			onDisk[e.Name()[:len(e.Name())-len(".txt")]] = true
		}
	}
	var missing, orphaned []string
	for _, f := range Figures() {
		if !onDisk[f.ID] {
			missing = append(missing, f.ID)
		}
		delete(onDisk, f.ID)
	}
	for id := range onDisk {
		orphaned = append(orphaned, id)
	}
	sort.Strings(orphaned)
	if len(missing) != 0 {
		t.Errorf("figures with no committed golden in results/: %v", missing)
	}
	if len(orphaned) != 0 {
		t.Errorf("committed goldens with no registered figure: %v", orphaned)
	}
}

// TestResultsEq1Golden pins results/eq1.txt unconditionally: the Eq. 1
// table is simulation-free, so this check is cheap enough for every CI
// run and catches any drift in the forgery-bound math or formatting.
func TestResultsEq1Golden(t *testing.T) {
	f, err := FigureByID("eq1")
	if err != nil {
		t.Fatal(err)
	}
	checkFigureGolden(t, NewRunner(resultsConfig()), f)
}

// TestResultsFiguresGolden regenerates every simulated figure at the
// committed budget and byte-diffs it against results/. A full sweep
// simulates all benchmarks under every registered scheme and the
// figures' variants, which takes minutes even on several cores, so the
// suite only runs when explicitly asked for via PLUTUS_GOLDEN_FIGS=1 (or
// when rewriting with -update); results/eq1.txt stays covered on every
// run by TestResultsEq1Golden.
func TestResultsFiguresGolden(t *testing.T) {
	if os.Getenv("PLUTUS_GOLDEN_FIGS") != "1" && !*update {
		t.Skip("full figure regeneration is slow; set PLUTUS_GOLDEN_FIGS=1 (or run with -update) to enable")
	}
	r := NewRunner(resultsConfig()) // one runner: figures share the run cache, like cmd/experiments
	for _, f := range Figures() {
		if f.ID == "eq1" {
			continue
		}
		f := f
		t.Run(f.ID, func(t *testing.T) { checkFigureGolden(t, r, f) })
	}
}
