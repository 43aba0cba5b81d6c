package harness

import (
	"context"
	"strings"
	"sync"
	"testing"

	"github.com/plutus-gpu/plutus/internal/secmem"
	"github.com/plutus-gpu/plutus/internal/stats"
)

// TestSingleFlightExecutesOnce is the single-flight cache contract under
// contention: N goroutines requesting the same (benchmark, scheme) must
// execute the simulation exactly once — counted by Metrics, not inferred
// — and every caller must observe the identical *stats.Stats (each
// execution allocates a fresh one, so pointer identity proves sharing).
// CI runs this under -race as part of the ordinary test matrix.
func TestSingleFlightExecutesOnce(t *testing.T) {
	r := NewRunner(tinyConfig())
	const callers = 24
	got := make([]*stats.Stats, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st, err := r.RunSeededContext(context.Background(), "hotspot", secmem.PSSM(128<<20), 0)
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
			t.Fatalf("caller %d observed a distinct *stats.Stats — the run executed more than once", i)
		}
	}
	m := r.Metrics()
	if m.Executions != 1 {
		t.Fatalf("Metrics.Executions = %d, want exactly 1", m.Executions)
	}
	if m.Lookups != callers {
		t.Errorf("Metrics.Lookups = %d, want %d", m.Lookups, callers)
	}
	if hr := m.HitRate(); hr <= 0.9 {
		t.Errorf("HitRate() = %.3f, want > 0.9 for %d coalesced callers", hr, callers)
	}
}

// TestRunContextCancelledBeforeStart: a pre-cancelled context fails fast
// without executing anything or poisoning the cache — the next caller
// with a live context runs the simulation normally.
func TestRunContextCancelledBeforeStart(t *testing.T) {
	r := NewRunner(tinyConfig())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := r.RunSeededContext(ctx, "bfs", secmem.PSSM(128<<20), 0); err == nil {
		t.Fatal("cancelled context did not error")
	}
	st, err := r.RunSeededContext(context.Background(), "bfs", secmem.PSSM(128<<20), 0)
	if err != nil || st == nil {
		t.Fatalf("cache poisoned by cancelled call: %v", err)
	}
	if m := r.Metrics(); m.Executions != 1 {
		t.Errorf("Metrics.Executions = %d, want 1 (cancelled call must not execute)", m.Executions)
	}
}

// TestRunRendersByteStable pins the single-run renderings the daemon
// serves: two independent runners produce byte-identical Report text,
// canonical JSON and single-run CSV, and the CSV reuses the frozen
// WriteCSV header.
func TestRunRendersByteStable(t *testing.T) {
	render := func() (string, string, string) {
		r := NewRunner(tinyConfig())
		sc := secmem.PSSM(128 << 20)
		st, err := r.Run("bfs", sc)
		if err != nil {
			t.Fatal(err)
		}
		var j, c strings.Builder
		if err := WriteRunJSON(&j, st); err != nil {
			t.Fatal(err)
		}
		if err := WriteRunCSV(&c, st); err != nil {
			t.Fatal(err)
		}
		return Report(st, sc), j.String(), c.String()
	}
	text1, json1, csv1 := render()
	text2, json2, csv2 := render()
	if text1 != text2 || json1 != json2 || csv1 != csv2 {
		t.Error("single-run renderings differ between two fresh runners")
	}
	if got := strings.SplitN(csv1, "\n", 2)[0]; got != csvHeader {
		t.Errorf("WriteRunCSV header drifted:\n got %q\nwant %q", got, csvHeader)
	}
	if !strings.HasPrefix(text1, "benchmark: bfs   scheme: pssm\n") {
		t.Errorf("Report missing identity line:\n%s", text1)
	}
	if !strings.HasSuffix(json1, "\n") {
		t.Error("WriteRunJSON output must be newline-terminated")
	}
}
