package checkpoint

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

func sampleFile() *File {
	enc := NewEncoder()
	enc.U64(0xdeadbeefcafe)
	enc.U32(7)
	enc.U8(3)
	enc.Bool(true)
	enc.String("plutus")
	enc.Bytes([]byte{1, 2, 3, 4})

	f := &File{}
	f.Add("meta", enc.Data())
	f.Add("part0", []byte("partition zero state"))
	f.Add("part1", nil) // empty payloads are legal
	return f
}

func TestRoundTrip(t *testing.T) {
	f := sampleFile()
	data := f.Encode()
	g, err := Decode(data)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if len(g.Sections()) != 3 {
		t.Fatalf("got %d sections, want 3", len(g.Sections()))
	}
	for i, s := range f.Sections() {
		gs := g.Sections()[i]
		if gs.Name != s.Name {
			t.Errorf("section %d: name %q, want %q", i, gs.Name, s.Name)
		}
		if string(gs.Payload) != string(s.Payload) {
			t.Errorf("section %q: payload mismatch", s.Name)
		}
	}
	meta, ok := g.Section("meta")
	if !ok {
		t.Fatal("meta section missing")
	}
	d := NewDecoder(meta)
	if v := d.U64(); v != 0xdeadbeefcafe {
		t.Errorf("U64 = %x", v)
	}
	if v := d.U32(); v != 7 {
		t.Errorf("U32 = %d", v)
	}
	if v := d.U8(); v != 3 {
		t.Errorf("U8 = %d", v)
	}
	if !d.Bool() {
		t.Error("Bool = false")
	}
	if s := d.String(); s != "plutus" {
		t.Errorf("String = %q", s)
	}
	if b := d.Bytes(); len(b) != 4 || b[3] != 4 {
		t.Errorf("Bytes = %v", b)
	}
	if err := d.Finish(); err != nil {
		t.Errorf("Finish: %v", err)
	}
}

// TestEncodeDeterministic: the same state must produce the same bytes.
func TestEncodeDeterministic(t *testing.T) {
	a := sampleFile().Encode()
	b := sampleFile().Encode()
	if string(a) != string(b) {
		t.Fatal("two encodes of identical state differ")
	}
}

// TestTruncationEveryLength: a snapshot cut at any point must be
// rejected with a typed error — never decoded into partial state.
func TestTruncationEveryLength(t *testing.T) {
	data := sampleFile().Encode()
	for n := 0; n < len(data); n++ {
		_, err := Decode(data[:n])
		if err == nil {
			t.Fatalf("truncation to %d of %d bytes decoded successfully", n, len(data))
		}
		if !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncation to %d bytes: error %v is neither ErrTruncated nor ErrCorrupt", n, err)
		}
	}
	// Truncations short enough to lose the trailer must specifically
	// report ErrTruncated, the retry-an-older-snapshot signal.
	for _, n := range []int{0, 1, minFileLen - 1, len(data) - 12} {
		if n < 0 {
			continue
		}
		if _, err := Decode(data[:n]); !errors.Is(err, ErrTruncated) {
			t.Errorf("truncation to %d bytes: got %v, want ErrTruncated", n, err)
		}
	}
}

// TestBitFlipEveryByte: flipping any single byte must be detected.
func TestBitFlipEveryByte(t *testing.T) {
	data := sampleFile().Encode()
	rng := rand.New(rand.NewSource(1))
	for i := range data {
		mut := make([]byte, len(data))
		copy(mut, data)
		mut[i] ^= byte(1 << rng.Intn(8))
		if mut[i] == data[i] {
			mut[i] ^= 0xff
		}
		_, err := Decode(mut)
		if err == nil {
			t.Fatalf("flip at byte %d decoded successfully", i)
		}
		if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrTruncated) {
			t.Fatalf("flip at byte %d: error %v is not a typed corruption error", i, err)
		}
	}
}

// TestFlippedSectionCRC: damaging a payload byte and both CRCs the
// consistent way is still caught by the other layer's checksum.
func TestFlippedSectionCRC(t *testing.T) {
	data := sampleFile().Encode()
	// Flip one payload byte and recompute only the file CRC: the
	// section CRC must catch it.
	mut := make([]byte, len(data))
	copy(mut, data)
	// First payload byte: magic(8) + version(4) + count(4) + nameLen(4)
	// + "meta"(4) + payloadLen(8) = offset 32.
	mut[32] ^= 0x01
	binary.LittleEndian.PutUint32(mut[len(mut)-4:], crc32.ChecksumIEEE(mut[:len(mut)-4]))
	if _, err := Decode(mut); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("payload flip with fixed-up file CRC: got %v, want ErrCorrupt", err)
	}
}

// TestVersionMismatch: an intact file from a different format version
// must be rejected with ErrVersion, not misparsed.
func TestVersionMismatch(t *testing.T) {
	data := sampleFile().Encode()
	mut := make([]byte, len(data))
	copy(mut, data)
	binary.LittleEndian.PutUint32(mut[8:12], Version+1)
	binary.LittleEndian.PutUint32(mut[len(mut)-4:], crc32.ChecksumIEEE(mut[:len(mut)-4]))
	_, err := Decode(mut)
	if !errors.Is(err, ErrVersion) {
		t.Fatalf("got %v, want ErrVersion", err)
	}
}

func TestBadMagic(t *testing.T) {
	data := sampleFile().Encode()
	mut := make([]byte, len(data))
	copy(mut, data)
	copy(mut, "NOTASNAP")
	binary.LittleEndian.PutUint32(mut[len(mut)-4:], crc32.ChecksumIEEE(mut[:len(mut)-4]))
	if _, err := Decode(mut); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("got %v, want ErrCorrupt", err)
	}
}

func TestDecoderSticky(t *testing.T) {
	d := NewDecoder([]byte{1, 2})
	_ = d.U64() // past end
	if d.Err() == nil {
		t.Fatal("no error after reading past end")
	}
	first := d.Err()
	_ = d.U32()
	_ = d.String()
	if d.Err() != first {
		t.Error("error not sticky")
	}
	if !errors.Is(d.Finish(), ErrCorrupt) {
		t.Errorf("Finish = %v, want ErrCorrupt", d.Finish())
	}
}

func TestDecoderTrailingBytes(t *testing.T) {
	e := NewEncoder()
	e.U32(1)
	e.U32(2)
	d := NewDecoder(e.Data())
	_ = d.U32()
	if err := d.Finish(); !errors.Is(err, ErrCorrupt) {
		t.Errorf("Finish with trailing bytes = %v, want ErrCorrupt", err)
	}
}

func TestDecoderBadBool(t *testing.T) {
	d := NewDecoder([]byte{7})
	_ = d.Bool()
	if !errors.Is(d.Err(), ErrCorrupt) {
		t.Errorf("bad bool byte: %v, want ErrCorrupt", d.Err())
	}
}

func TestSortedKeys(t *testing.T) {
	m := map[uint64]string{9: "i", 1: "a", 5: "e", 3: "c"}
	got := SortedKeys(m)
	want := []uint64{1, 3, 5, 9}
	if len(got) != len(want) {
		t.Fatalf("len = %d", len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("SortedKeys = %v, want %v", got, want)
		}
	}
}

// TestWriterMatchesFile: sections walked straight into a Writer give
// the bytes of the same walks marshalled one by one into a File, a
// walk's error reaches Finish, and a Writer sized too small still
// writes the whole file.
func TestWriterMatchesFile(t *testing.T) {
	walks := []struct {
		name string
		walk func(*Codec)
	}{
		{"meta", func(c *Codec) {
			v, s := uint64(0xdeadbeefcafe), "plutus"
			c.U64(&v)
			c.String(&s)
		}},
		{"part0", func(c *Codec) { c.Bytes([]byte("partition zero state")) }},
		{"part1", func(*Codec) {}},
	}
	f := &File{}
	for _, s := range walks {
		p, err := Marshal(s.walk)
		if err != nil {
			t.Fatal(err)
		}
		f.Add(s.name, p)
	}
	want := f.Encode()
	for _, size := range []int{0, len(want)} {
		w := NewWriter(size)
		for _, s := range walks {
			w.Section(s.name, s.walk)
		}
		got, err := w.Finish()
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Fatalf("Writer sized %d: %x, want %x", size, got, want)
		}
	}

	w := NewWriter(0)
	w.Section("meta", walks[0].walk)
	w.Section("bad", func(c *Codec) { c.Corrupt("walk failed") })
	w.Section("part0", walks[1].walk)
	if _, err := w.Finish(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Finish after a failed walk: err = %v, want ErrCorrupt", err)
	}
}

// TestDecodeAliasesInput: Decode copies no payload, so a section read
// after its input changed shows the change.
func TestDecodeAliasesInput(t *testing.T) {
	data := sampleFile().Encode()
	f, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	p, _ := f.Section("part0")
	for i := range data {
		data[i] = 'x'
	}
	if string(p) != "xxxxxxxxxxxxxxxxxxxx" {
		t.Fatalf("part0 = %q after its input changed, want it to alias the input", p)
	}
}

func TestDuplicateSectionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Add did not panic")
		}
	}()
	f := &File{}
	f.Add("x", nil)
	f.Add("x", nil)
}

func TestWriteReadFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.ckpt")
	data := sampleFile().Encode()
	if err := WriteFileAtomic(path, data); err != nil {
		t.Fatalf("WriteFileAtomic: %v", err)
	}
	f, err := ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if _, ok := f.Section("part0"); !ok {
		t.Error("part0 section missing after round trip")
	}
	// No temp litter.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("directory has %d entries, want 1", len(entries))
	}
	// Missing files surface through the fs error chain, not the
	// corruption taxonomy.
	_, err = ReadFile(filepath.Join(dir, "absent.ckpt"))
	if !os.IsNotExist(err) {
		t.Errorf("missing file: %v, want IsNotExist", err)
	}
	// A truncated on-disk file is rejected with the typed error.
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFile(path); !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrCorrupt) {
		t.Errorf("truncated on-disk file: %v", err)
	}
}
