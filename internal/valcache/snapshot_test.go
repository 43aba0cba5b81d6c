package valcache

import (
	"errors"
	"testing"

	"github.com/plutus-gpu/plutus/internal/checkpoint"
)

// entries encodes a cache section with the given pinned and transient
// keys (use count 1 each) and zero statistics.
func entries(pinned, transient []uint32) []byte {
	e := checkpoint.NewEncoder()
	for _, keys := range [][]uint32{pinned, transient} {
		e.U32(uint32(len(keys)))
		for _, k := range keys {
			e.U32(k)
			e.U8(1)
		}
	}
	for k := 0; k < 6; k++ {
		e.U64(0)
	}
	return e.Data()
}

// keys returns n distinct keys starting at from.
func keys(from, n int) []uint32 {
	out := make([]uint32, n)
	for i := range out {
		out[i] = uint32(from + i)
	}
	return out
}

// TestCodecRejectsHostileCounts: more transient entries than free slots
// (which used to panic with an index out of range in alloc), more pinned
// entries than the pinned capacity, and a repeated key all fail with
// ErrCorrupt.
func TestCodecRejectsHostileCounts(t *testing.T) {
	cfg := DefaultConfig()
	pinCap := MustNew(cfg).pinCap
	for name, data := range map[string][]byte{
		"transient": entries(nil, keys(0, cfg.Entries+1)),
		"pinned":    entries(keys(0, pinCap+1), nil),
		"repeated":  entries([]uint32{7}, []uint32{7}),
	} {
		if err := checkpoint.Unmarshal(data, MustNew(cfg).Codec); !errors.Is(err, checkpoint.ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", name, err)
		}
	}
	if err := checkpoint.Unmarshal(entries(keys(0, pinCap), keys(pinCap, cfg.Entries-pinCap)), MustNew(cfg).Codec); err != nil {
		t.Errorf("a full cache: %v", err)
	}
}
