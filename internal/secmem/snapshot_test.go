package secmem

import (
	"errors"
	"testing"

	"github.com/plutus-gpu/plutus/internal/checkpoint"
	"github.com/plutus-gpu/plutus/internal/geom"
)

// TestCodecRejectsHostileIndices: a memory-image record, MAC or
// stale-MAC index far past the protected range fails with ErrCorrupt in
// every registered scheme, instead of growing a dense page directory
// from it.
func TestCodecRejectsHostileIndices(t *testing.T) {
	cases := map[string]func(e *checkpoint.Encoder){
		"memory image": func(e *checkpoint.Encoder) {
			e.U64(1)
			e.U64(1 << 62)
			e.Bytes(make([]byte, geom.SectorSize))
		},
		"mac": func(e *checkpoint.Encoder) {
			e.U64(0)
			e.U64(1)
			e.U64(1 << 60)
			e.U64(0)
		},
		"stale mac": func(e *checkpoint.Encoder) {
			e.U64(0)
			e.U64(0)
			e.U64(1)
			e.U64(1 << 60)
			e.Bool(true)
		},
	}
	for _, name := range Names() {
		for store, enc := range cases {
			e := checkpoint.NewEncoder()
			enc(e)
			if err := checkpoint.Unmarshal(e.Data(), conformanceRig(t, name).e.Codec); !errors.Is(err, checkpoint.ErrCorrupt) {
				t.Errorf("%s %s: err = %v, want ErrCorrupt", name, store, err)
			}
		}
	}
}
