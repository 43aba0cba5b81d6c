package harness

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/plutus-gpu/plutus/internal/secmem"
)

// statsGoldenBenches cover the three datapath shapes every scheme must
// keep byte-stable: irregular reads (bfs), the write side with compact
// counters and MAC skipping (histo), and regular streams that mgx serves
// from derived versions (stream).
var statsGoldenBenches = []string{"bfs", "histo", "stream"}

// statsGoldenBudget keeps the pin cheap enough for every test run.
const statsGoldenBudget = 4000

// TestRunStatsGolden pins the complete stats record — every counter
// WriteRunJSON emits, not only the ratios results/*.txt prints — of every
// registered scheme on each pinned benchmark. One line per cell holds the
// sha256 of its JSON, so any change to any simulated count surfaces as a
// reviewed diff. Regenerate with `go test -run RunStatsGolden -update
// ./internal/harness/`.
func TestRunStatsGolden(t *testing.T) {
	r := NewRunner(Config{
		ProtectedBytes:  128 << 20,
		MaxInstructions: statsGoldenBudget,
		Benchmarks:      statsGoldenBenches,
		Parallelism:     2,
	})
	var out strings.Builder
	for _, name := range secmem.Names() {
		sc, err := secmem.ByName(name, r.Config().ProtectedBytes)
		if err != nil {
			t.Fatal(err)
		}
		for _, bench := range statsGoldenBenches {
			st, err := r.Run(bench, sc)
			if err != nil {
				t.Fatalf("%s/%s: %v", bench, name, err)
			}
			var buf bytes.Buffer
			if err := WriteRunJSON(&buf, st); err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&out, "%s %s %x\n", name, bench, sha256.Sum256(buf.Bytes()))
		}
	}
	path := filepath.Join("testdata", "stats.golden")
	if *update {
		if err := os.WriteFile(path, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	if got := out.String(); got != string(want) {
		t.Errorf("run stats differ from %s (regenerate with -update if intentional):\n got:\n%s\nwant:\n%s", path, got, want)
	}
}
