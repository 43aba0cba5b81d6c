package counters

import (
	"bytes"
	"errors"
	"testing"

	"github.com/plutus-gpu/plutus/internal/checkpoint"
)

// walkStore returns a walk of s and, when present, v, over a space of
// sectors data sectors.
func walkStore(s *SplitStore, v *CompactView, sectors uint64) func(*checkpoint.Codec) {
	return func(c *checkpoint.Codec) {
		s.Codec(c, sectors)
		if v != nil {
			v.Codec(c, sectors)
		}
	}
}

// TestCodecRoundTrip: a store and compact view walked out and back into
// fresh ones re-encode to the same bytes.
func TestCodecRoundTrip(t *testing.T) {
	const sectors = 1 << 14
	s := MustSplitStore(DefaultSplitConfig())
	v, err := NewCompactView(Compact3BitAdaptive, s, 4)
	if err != nil {
		t.Fatal(err)
	}
	note := func(i uint64) {
		s.Increment(i)
		v.NoteWrite(i)
	}
	for k := 0; k < 30000; k++ {
		note(uint64(k*37) % 4096) // saturates and disables whole blocks
	}
	for k := 0; k < 8; k++ {
		note(10000) // three saturated sectors, below the threshold
		note(10001)
		note(10002)
	}
	if v.satBlocks == 0 || v.disabled.Count() == 0 {
		t.Fatalf("workload left no adaptive state to walk (%d saturated blocks, %d disabled)", v.satBlocks, v.disabled.Count())
	}
	want, err := checkpoint.Marshal(walkStore(s, v, sectors))
	if err != nil {
		t.Fatal(err)
	}
	s2 := MustSplitStore(DefaultSplitConfig())
	v2, err := NewCompactView(Compact3BitAdaptive, s2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkpoint.Unmarshal(want, walkStore(s2, v2, sectors)); err != nil {
		t.Fatal(err)
	}
	got, err := checkpoint.Marshal(walkStore(s2, v2, sectors))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("re-encoded state differs: %d vs %d bytes", len(got), len(want))
	}
}

// TestSplitCodecRejectsHostileIndex: a group index of 2^60 fails with
// ErrCorrupt instead of growing the dense page directory to 2^48
// entries.
func TestSplitCodecRejectsHostileIndex(t *testing.T) {
	e := checkpoint.NewEncoder()
	e.U32(32)      // group size
	e.U64(1)       // one group
	e.U64(1 << 60) // its index
	e.U64(0)       // major
	for k := 0; k < 32; k++ {
		e.U32(0)
	}
	s := MustSplitStore(DefaultSplitConfig())
	if err := checkpoint.Unmarshal(e.Data(), walkStore(s, nil, 1<<20)); !errors.Is(err, checkpoint.ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}

// TestCompactCodecRejectsHostileIndex: the same for a saturated-sector
// block and a saturated sector past the view.
func TestCompactCodecRejectsHostileIndex(t *testing.T) {
	for _, c := range []struct {
		name         string
		block, index uint64
	}{{"block", 1 << 60, 0}, {"sector", 0, 1 << 60}} {
		e := checkpoint.NewEncoder()
		e.U32(32) // split group size
		e.U64(0)  // no groups
		e.U8(uint8(Compact3BitAdaptive))
		e.U64(0) // no disabled blocks
		e.U64(1) // one saturated block
		e.U64(c.block)
		e.U64(1) // one sector
		e.U64(c.index)
		s := MustSplitStore(DefaultSplitConfig())
		v, err := NewCompactView(Compact3BitAdaptive, s, 4)
		if err != nil {
			t.Fatal(err)
		}
		if err := checkpoint.Unmarshal(e.Data(), walkStore(s, v, 1<<20)); !errors.Is(err, checkpoint.ErrCorrupt) {
			t.Errorf("%s index: err = %v, want ErrCorrupt", c.name, err)
		}
	}
}
