package harness

import (
	"strings"
	"testing"

	"github.com/plutus-gpu/plutus/internal/secmem"
)

// Seed zero must be the canonical run: same cache key (so every
// pre-seed key, snapshot filename, and golden fixture stays stable) and
// the very same single-flight entry as Run.
func TestSeedZeroIsCanonical(t *testing.T) {
	r := NewRunner(Config{Benchmarks: []string{"stream"}, MaxInstructions: 200})
	sc := secmem.PSSM(0)
	sc.ProtectedBytes = ProtectedBytes
	if k0, k := r.key("stream", sc, 0), "stream|pssm|200|134217728"; k0 != k {
		t.Fatalf("seed-0 key = %q, want %q", k0, k)
	}
	a, err := r.Run("stream", secmem.PSSM(0))
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.RunSeeded("stream", secmem.PSSM(0), 0)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("RunSeeded(0) did not coalesce onto Run's cache entry")
	}
	if m := r.Metrics(); m.Executions != 1 {
		t.Fatalf("expected 1 execution, got %d", m.Executions)
	}
}

// Distinct seeds are distinct cache-key dimensions and genuinely
// distinct simulations.
func TestSeedIsACacheDimension(t *testing.T) {
	r := NewRunner(Config{Benchmarks: []string{"bfs"}, MaxInstructions: 200})
	sc := secmem.PSSM(0)
	sc.ProtectedBytes = ProtectedBytes
	k1 := r.key("bfs", sc, 1)
	k2 := r.key("bfs", sc, 2)
	if k1 == k2 {
		t.Fatalf("seeds 1 and 2 share key %q", k1)
	}
	if !strings.Contains(k1, "|seed=1") {
		t.Fatalf("key %q missing seed component", k1)
	}
	s1, err := r.RunSeeded("bfs", secmem.PSSM(0), 1)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := r.RunSeeded("bfs", secmem.PSSM(0), 2)
	if err != nil {
		t.Fatal(err)
	}
	if *s1 == *s2 {
		t.Fatal("seeds 1 and 2 produced identical stats")
	}
	if m := r.Metrics(); m.Executions != 2 {
		t.Fatalf("expected 2 executions, got %d", m.Executions)
	}
	// Seeded snapshot lineages must not collide with the canonical one.
	if p0, p1 := r.SnapshotPathSeeded("bfs", sc, 0), r.SnapshotPathSeeded("bfs", sc, 1); p0 == p1 {
		t.Fatalf("seeded snapshot path collides with canonical: %q", p0)
	}
}

// The same seed replayed in a fresh runner must reproduce the run
// bit-for-bit — the property the cluster's content-addressed store
// verifies across workers.
func TestSeededRunsReplayIdentically(t *testing.T) {
	mk := func() *Runner {
		return NewRunner(Config{Benchmarks: []string{"bfs"}, MaxInstructions: 200})
	}
	a, err := mk().RunSeeded("bfs", secmem.Plutus(0), 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := mk().RunSeeded("bfs", secmem.Plutus(0), 7)
	if err != nil {
		t.Fatal(err)
	}
	if *a != *b {
		t.Fatalf("seed 7 diverged across runners:\n%+v\n%+v", a, b)
	}
}
