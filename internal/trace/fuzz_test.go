package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"testing"

	"github.com/plutus-gpu/plutus/internal/checkpoint"
)

// FuzzReadV2 hammers the reader with arbitrary bytes: whatever comes
// in, it must either parse completely (index consistent with the
// chunks) or fail with exactly one of the checkpoint taxonomy errors —
// never panic, never hang, never accept a structurally inconsistent
// file. The committed corpus under testdata/fuzz seeds the classes the
// format distinguishes: valid, truncated, bit-flipped, wrong-version.
func FuzzReadV2(f *testing.F) {
	valid := buildValid(f)
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte("PLTR"))
	f.Add(valid[:len(valid)-trailerLen])                            // writer died before the trailer
	f.Add(valid[:len(valid)/3])                                     // mid-chunk truncation
	f.Add(append([]byte("PLTR\x01\x00"), valid[fileHeaderLen:]...)) // v1 file
	flip := append([]byte(nil), valid...)
	flip[len(flip)/2] ^= 0x20 // chunk payload bit-flip
	f.Add(flip)
	crc := append([]byte(nil), valid...)
	crc[len(crc)-1] ^= 0x01 // trailer CRC flip
	f.Add(crc)
	f.Add(overclaimChunks(f, valid))
	f.Add(overclaimRecords(f, valid))

	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := NewReader(bytes.NewReader(data), int64(len(data)))
		if err != nil {
			requireTaxonomy(t, err)
			return
		}
		var total uint64
		for w := 0; w < r.Warps(); w++ {
			chunks := r.Index(w)
			for i, ci := range chunks {
				recs, err := r.LoadChunk(w, i)
				if err != nil {
					requireTaxonomy(t, err)
					return
				}
				if uint32(len(recs)) != ci.Count {
					t.Fatalf("warp %d chunk %d: %d records, index says %d", w, i, len(recs), ci.Count)
				}
				total += uint64(len(recs))
			}
		}
		if total != r.TotalRecords() {
			t.Fatalf("chunks hold %d records, header says %d", total, r.TotalRecords())
		}
	})
}

// resealFooter returns data with edit applied to its footer payload
// under a recomputed footer CRC.
func resealFooter(t testing.TB, data []byte, edit func(out, payload []byte)) []byte {
	t.Helper()
	r, err := NewReader(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	out := append([]byte(nil), data...)
	n := binary.LittleEndian.Uint32(out[r.footerOff+1:])
	payload := out[r.footerOff+5 : r.footerOff+5+uint64(n)]
	edit(out, payload)
	binary.LittleEndian.PutUint32(out[r.footerOff+5+uint64(n):], crc32.ChecksumIEEE(payload))
	return out
}

// overclaimChunks raises warp 0's footer chunk count past the chunk
// frames the file can hold. The footer payload opens with the total
// (u64) and the warp count (u32).
func overclaimChunks(t testing.TB, data []byte) []byte {
	return resealFooter(t, data, func(_, p []byte) {
		binary.LittleEndian.PutUint32(p[12:], uint32(len(data)/chunkFrameLen+1))
	})
}

// overclaimRecords makes warp 0's last chunk claim 2^31 records, far
// more than its payload holds, consistently in its frame, its index
// entry and the footer total.
func overclaimRecords(t testing.TB, data []byte) []byte {
	return resealFooter(t, data, func(out, p []byte) {
		const claim = 1 << 31
		n := binary.LittleEndian.Uint32(p[12:])
		entry := p[16+(n-1)*chunkInfoLen:]
		old := binary.LittleEndian.Uint32(entry[16:])
		binary.LittleEndian.PutUint32(entry[16:], claim)
		binary.LittleEndian.PutUint64(p, binary.LittleEndian.Uint64(p)+claim-uint64(old))
		binary.LittleEndian.PutUint32(out[binary.LittleEndian.Uint64(entry)+13:], claim)
	})
}

// requireTaxonomy asserts err belongs to the checkpoint error taxonomy
// the package documents — anything else is an escaped internal error.
func requireTaxonomy(t *testing.T, err error) {
	t.Helper()
	if !errors.Is(err, checkpoint.ErrTruncated) &&
		!errors.Is(err, checkpoint.ErrCorrupt) &&
		!errors.Is(err, checkpoint.ErrVersion) {
		t.Fatalf("error outside the taxonomy: %v", err)
	}
}
