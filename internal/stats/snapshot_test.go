package stats

import (
	"bytes"
	"testing"

	"github.com/plutus-gpu/plutus/internal/checkpoint"
)

// secStatsFixture returns a SecStats with every field — including each
// verdict counter — set to a distinct nonzero value, so a codec that
// drops, reorders or aliases any field cannot round-trip it.
func secStatsFixture() SecStats {
	s := SecStats{
		ValueVerified:    101,
		MACVerified:      202,
		MACSkippedWrites: 303,
		MACWrites:        404,
		CompactHits:      505,
		CompactOverflow:  606,
		CompactDisabled:  707,
		BMTNodeVerifies:  808,
		TamperDetected:   909,
		ReplayDetected:   1010,
		TamperInjected:   1111,
		TaintedReads:     1212,

		DerivedVersions:     1313,
		DerivedFallbacks:    1414,
		SharesReconstructed: 1515,
	}
	for i, v := range VerdictKinds() {
		for n := 0; n < 13+i; n++ {
			s.Verdicts.Record(v)
		}
	}
	return s
}

// TestSecStatsSnapshotRoundTrip: the verdict counters ride the same
// checkpoint codec as the rest of SecStats, and an attacked run's
// resume replay depends on them surviving encode/decode exactly.
func TestSecStatsSnapshotRoundTrip(t *testing.T) {
	want := secStatsFixture()

	data, err := checkpoint.Marshal(want.Codec)
	if err != nil {
		t.Fatal(err)
	}

	var got SecStats
	if err := checkpoint.Unmarshal(data, got.Codec); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got != want {
		t.Errorf("SecStats round trip mutated state:\n got  %+v\n want %+v", got, want)
	}
	for i, v := range VerdictKinds() {
		if got.Verdicts.Count(v) != uint64(13+i) {
			t.Errorf("verdict %v count = %d after round trip, want %d", v, got.Verdicts.Count(v), 13+i)
		}
	}
	if got.Verdicts.Total() != want.Verdicts.Total() {
		t.Errorf("verdict total = %d after round trip, want %d", got.Verdicts.Total(), want.Verdicts.Total())
	}

	// Re-encoding the restored struct must reproduce the original bytes:
	// the byte-identical replay guarantee leans on this determinism.
	re, err := checkpoint.Marshal(got.Codec)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(re, data) {
		t.Errorf("re-encoded snapshot differs from original (%d vs %d bytes)", len(re), len(data))
	}
}

// TestSecStatsSnapshotSize pins the encoded width so a field added to
// SecStats without a matching codec (or version bump) fails loudly
// here instead of desynchronizing resumed runs.
func TestSecStatsSnapshotSize(t *testing.T) {
	s := secStatsFixture()
	data, err := checkpoint.Marshal(s.Codec)
	if err != nil {
		t.Fatal(err)
	}
	const fixed = 15 // scalar uint64 fields
	want := 8 * (fixed + len(VerdictKinds()))
	if len(data) != want {
		t.Errorf("encoded SecStats is %d bytes, want %d — field/codec mismatch?", len(data), want)
	}
}
