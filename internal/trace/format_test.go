package trace

import (
	"bytes"
	"errors"
	"testing"

	"github.com/plutus-gpu/plutus/internal/checkpoint"
	"github.com/plutus-gpu/plutus/internal/geom"
	"github.com/plutus-gpu/plutus/internal/gpusim"
	"github.com/plutus-gpu/plutus/internal/valmodel"
)

// buildValid serializes a small multi-chunk trace for mutation tests
// and fuzz seeds.
func buildValid(t testing.TB) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf, Header{
		Warps:        3,
		HasModel:     true,
		Model:        valmodel.Model{Seed: 9, ZeroFrac: 0.3, PoolFrac: 0.2, PoolSize: 8, Jitter: true},
		ChunkRecords: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 40; step++ {
		for wi := 0; wi < 3; wi++ {
			rec := Record{Warp: uint32(wi), Kind: gpusim.Load,
				Addrs: []geom.Addr{geom.Addr(step * 32), geom.Addr(step*32 + 8)}}
			if step%4 == 0 {
				rec = Record{Warp: uint32(wi), Kind: gpusim.Compute, Cycles: uint16(step + 1)}
			}
			w.Append(rec)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func readAllErr(data []byte) error {
	r, err := NewReader(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		return err
	}
	for w := 0; w < r.Warps(); w++ {
		for i := 0; i < r.Chunks(w); i++ {
			if _, err := r.LoadChunk(w, i); err != nil {
				return err
			}
		}
	}
	return nil
}

func TestReaderValid(t *testing.T) {
	data := buildValid(t)
	if err := readAllErr(data); err != nil {
		t.Fatalf("valid trace rejected: %v", err)
	}
	r, err := NewReader(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	if r.TotalRecords() != 120 || r.Warps() != 3 {
		t.Fatalf("header stats wrong: %d records, %d warps", r.TotalRecords(), r.Warps())
	}
	if got := r.WarpRecords(1); got != 40 {
		t.Fatalf("warp 1 has %d records, want 40", got)
	}
	if r.Chunks(0) != 5 { // 40 records at 8 per chunk
		t.Fatalf("warp 0 has %d chunks, want 5", r.Chunks(0))
	}
}

// TestErrorTaxonomy maps each damage class to its checkpoint error, the
// same discipline snapshot files follow: absent trailer = truncated,
// failed CRC or structure = corrupt, wrong version = version.
func TestErrorTaxonomy(t *testing.T) {
	valid := buildValid(t)
	mutate := func(f func(d []byte) []byte) []byte {
		d := append([]byte(nil), valid...)
		return f(d)
	}
	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"empty", nil, checkpoint.ErrTruncated},
		{"magic-only", []byte("PLTR"), checkpoint.ErrTruncated},
		{"missing-trailer", mutate(func(d []byte) []byte { return d[:len(d)-trailerLen] }), checkpoint.ErrTruncated},
		{"half-file", mutate(func(d []byte) []byte { return d[:len(d)/2] }), checkpoint.ErrTruncated},
		{"bad-magic", mutate(func(d []byte) []byte { d[0] ^= 0xff; return d }), checkpoint.ErrCorrupt},
		{"v1-file", mutate(func(d []byte) []byte { d[4], d[5] = 1, 0; return d }), checkpoint.ErrVersion},
		{"future-version", mutate(func(d []byte) []byte { d[4], d[5] = 3, 0; return d }), checkpoint.ErrVersion},
		{"header-bitflip", mutate(func(d []byte) []byte { d[fileHeaderLen+5] ^= 0x10; return d }), checkpoint.ErrCorrupt},
		{"trailer-crc-flip", mutate(func(d []byte) []byte { d[len(d)-1] ^= 1; return d }), checkpoint.ErrCorrupt},
		{"trailer-offset-flip", mutate(func(d []byte) []byte { d[len(d)-trailerLen+8] ^= 1; return d }), checkpoint.ErrCorrupt},
		{"footer-chunk-overclaim", overclaimChunks(t, valid), checkpoint.ErrCorrupt},
		{"chunk-record-overclaim", overclaimRecords(t, valid), checkpoint.ErrCorrupt},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := readAllErr(tc.data); !errors.Is(err, tc.want) {
				t.Errorf("err = %v, want %v", err, tc.want)
			}
		})
	}
}

// TestChunkCorruptionDetected: damage inside a chunk payload passes
// NewReader (header and footer are intact — streaming validation is
// per-chunk) but fails that chunk's CRC on load.
func TestChunkCorruptionDetected(t *testing.T) {
	data := buildValid(t)
	r, err := NewReader(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	ci := r.Index(1)[2]
	// Flip one byte in the middle of warp 1's third chunk payload.
	data[ci.Offset+uint64(chunkFrameLen)+uint64(ci.PayloadLen)/2] ^= 0x40

	r2, err := NewReader(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatalf("NewReader should not read chunk payloads, got %v", err)
	}
	if _, err := r2.LoadChunk(1, 2); !errors.Is(err, checkpoint.ErrCorrupt) {
		t.Errorf("corrupted chunk load: err = %v, want ErrCorrupt", err)
	}
	// Undamaged chunks still load.
	if _, err := r2.LoadChunk(1, 1); err != nil {
		t.Errorf("sibling chunk failed: %v", err)
	}
	if _, err := r2.LoadChunk(0, 2); err != nil {
		t.Errorf("other warp failed: %v", err)
	}
}

// TestFooterCorruptionDetected: damage in the footer index fails at
// open time — a replay never starts against a lying index.
func TestFooterCorruptionDetected(t *testing.T) {
	data := buildValid(t)
	r, err := NewReader(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	data[r.footerOff+10] ^= 0x04
	if _, err := NewReader(bytes.NewReader(data), int64(len(data))); !errors.Is(err, checkpoint.ErrCorrupt) {
		t.Errorf("corrupted footer: err = %v, want ErrCorrupt", err)
	}
}

func TestWriterValidation(t *testing.T) {
	if _, err := NewWriter(&bytes.Buffer{}, Header{Warps: 0}); err == nil {
		t.Error("zero-warp header accepted")
	}
	if _, err := NewWriter(&bytes.Buffer{}, Header{Warps: maxWarps + 1}); err == nil {
		t.Error("absurd warp count accepted")
	}

	var buf bytes.Buffer
	w, err := NewWriter(&buf, Header{Warps: 2})
	if err != nil {
		t.Fatal(err)
	}
	w.Append(Record{Warp: 5, Kind: gpusim.Compute, Cycles: 1})
	if w.Err() == nil {
		t.Error("out-of-range warp accepted")
	}
	if err := w.Close(); err == nil {
		t.Error("Close after sticky error succeeded")
	}

	buf.Reset()
	w, err = NewWriter(&buf, Header{Warps: 2})
	if err != nil {
		t.Fatal(err)
	}
	w.Append(Record{Warp: 0, Kind: gpusim.InstKind(9)})
	if w.Err() == nil {
		t.Error("invalid kind accepted")
	}

	buf.Reset()
	w, err = NewWriter(&buf, Header{Warps: 2})
	if err != nil {
		t.Fatal(err)
	}
	w.Append(Record{Warp: 0, Kind: gpusim.Store, Addrs: make([]geom.Addr, 0x10000)})
	if w.Err() == nil {
		t.Error("oversized address vector accepted")
	}

	buf.Reset()
	w, err = NewWriter(&buf, Header{Warps: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("empty trace close: %v", err)
	}
	w.Append(Record{Warp: 0, Kind: gpusim.Compute, Cycles: 1})
	if w.Err() == nil {
		t.Error("Append after Close accepted")
	}
	if err := readAllErr(buf.Bytes()); err != nil {
		t.Errorf("empty trace does not round-trip: %v", err)
	}
}
