package checkpoint

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
)

// File layout (all integers little-endian):
//
//	magic   [8]byte  "PLUTSNAP"
//	version u32
//	count   u32                      number of sections
//	section × count:
//	    nameLen    u32
//	    name       [nameLen]byte
//	    payloadLen u64
//	    payload    [payloadLen]byte
//	    payloadCRC u32               CRC32 (IEEE) of payload
//	trailer [8]byte  "PLUTSEND"
//	fileCRC u32                      CRC32 (IEEE) of every prior byte
//
// The trailer magic distinguishes truncation (writer died; trailer
// absent → ErrTruncated) from corruption (trailer present but a CRC
// fails → ErrCorrupt). Section order is part of the format: writers
// emit sections in a fixed order, so identical state is identical bytes.
const (
	fileMagic    = "PLUTSNAP"
	trailerMagic = "PLUTSEND"
	// magic + version + count + trailer magic + file CRC.
	minFileLen = 8 + 4 + 4 + 8 + 4
)

// Section is one named, independently checksummed chunk of a snapshot.
type Section struct {
	Name    string
	Payload []byte
}

// File is an ordered collection of sections — one snapshot.
type File struct {
	sections []Section
}

// Add appends a section. Adding two sections with the same name is a
// programming error and panics; section names are the format's schema.
func (f *File) Add(name string, payload []byte) {
	for _, s := range f.sections {
		if s.Name == name {
			panic("checkpoint: duplicate section " + name)
		}
	}
	f.sections = append(f.sections, Section{Name: name, Payload: payload})
}

// Section returns the payload of the named section.
func (f *File) Section(name string) ([]byte, bool) {
	for _, s := range f.sections {
		if s.Name == name {
			return s.Payload, true
		}
	}
	return nil, false
}

// Sections returns the sections in file order.
func (f *File) Sections() []Section { return f.sections }

// Encode serializes the file, trailer and checksums included.
func (f *File) Encode() []byte {
	size := minFileLen
	for _, s := range f.sections {
		size += 4 + len(s.Name) + 8 + len(s.Payload) + 4
	}
	w := NewWriter(size)
	for _, s := range f.sections {
		at := w.begin(s.Name)
		w.e.buf = append(w.e.buf, s.Payload...)
		w.end(at)
	}
	return w.close()
}

// Writer writes one snapshot file in a single pass. Each section's walk
// encodes straight into the file buffer; its payload length is
// back-patched and its CRC taken over the bytes just written, so a
// snapshot costs one buffer of about its own size, not a buffer per
// section plus a copy of each into the file. It is the one place the
// file layout above is written.
type Writer struct {
	e     Encoder
	names []string
	err   error
}

// NewWriter starts a snapshot file in a buffer with room for size
// bytes; the buffer grows if the file turns out larger.
func NewWriter(size int) *Writer {
	w := &Writer{e: Encoder{buf: make([]byte, 0, max(size, minFileLen))}}
	w.e.buf = append(w.e.buf, fileMagic...)
	w.e.U32(Version)
	w.e.U32(0) // the section count, patched by close
	return w
}

// Section appends a section whose payload is walk's encoding. Adding two
// sections with the same name is a programming error and panics, as in
// File.Add. After a walk records an error, later sections are skipped
// and Finish returns that error.
func (w *Writer) Section(name string, walk func(*Codec)) {
	if w.err != nil {
		return
	}
	at := w.begin(name)
	c := Codec{e: &w.e}
	walk(&c)
	if c.err != nil {
		w.err = c.err
		return
	}
	w.end(at)
}

// Finish returns the file, which belongs to the caller, or the first
// error a section's walk recorded.
func (w *Writer) Finish() ([]byte, error) {
	if w.err != nil {
		return nil, w.err
	}
	return w.close(), nil
}

// begin writes a section's name and a placeholder payload length, and
// returns the placeholder's offset for end.
func (w *Writer) begin(name string) int {
	for _, n := range w.names {
		if n == name {
			panic("checkpoint: duplicate section " + name)
		}
	}
	w.names = append(w.names, name)
	w.e.String(name)
	at := len(w.e.buf)
	w.e.U64(0)
	return at
}

// end patches the length of the payload written since begin and
// appends its CRC.
func (w *Writer) end(at int) {
	payload := w.e.buf[at+8:]
	binary.LittleEndian.PutUint64(w.e.buf[at:], uint64(len(payload)))
	w.e.U32(crc32.ChecksumIEEE(payload))
}

// close patches the section count and appends the trailer and the file
// CRC.
func (w *Writer) close() []byte {
	binary.LittleEndian.PutUint32(w.e.buf[12:], uint32(len(w.names)))
	w.e.buf = append(w.e.buf, trailerMagic...)
	w.e.U32(crc32.ChecksumIEEE(w.e.buf))
	return w.e.buf
}

// Decode parses and verifies a snapshot. It never returns partially
// decoded state: any failure yields a nil File and one of the typed
// errors (ErrTruncated, ErrCorrupt, ErrVersion). It copies nothing: the
// File's section payloads alias data, so the caller must leave data
// unchanged for as long as it reads them.
func Decode(data []byte) (*File, error) {
	if len(data) < minFileLen {
		return nil, fmt.Errorf("%d bytes, need at least %d: %w", len(data), minFileLen, ErrTruncated)
	}
	// Trailer first: a missing trailer means the writer never finished,
	// which is the one failure a caller may treat as benign (retry from
	// an older snapshot) rather than alarming.
	trailerOff := len(data) - 12
	if string(data[trailerOff:trailerOff+8]) != trailerMagic {
		return nil, fmt.Errorf("trailer magic missing: %w", ErrTruncated)
	}
	wantCRC := binary.LittleEndian.Uint32(data[len(data)-4:])
	if got := crc32.ChecksumIEEE(data[:len(data)-4]); got != wantCRC {
		return nil, fmt.Errorf("file CRC mismatch (got %08x want %08x): %w", got, wantCRC, ErrCorrupt)
	}
	if string(data[:8]) != fileMagic {
		return nil, fmt.Errorf("bad magic %q: %w", data[:8], ErrCorrupt)
	}
	version := binary.LittleEndian.Uint32(data[8:12])
	if version != Version {
		return nil, fmt.Errorf("snapshot version %d, this binary reads version %d: %w",
			version, Version, ErrVersion)
	}

	d := NewDecoder(data[12:trailerOff])
	count := d.U32()
	f := &File{}
	for i := uint32(0); i < count; i++ {
		name := d.String()
		payloadLen := d.U64()
		payload := d.take(int(payloadLen))
		crc := d.U32()
		if d.err != nil {
			break
		}
		if got := crc32.ChecksumIEEE(payload); got != crc {
			return nil, fmt.Errorf("section %q CRC mismatch (got %08x want %08x): %w",
				name, got, crc, ErrCorrupt)
		}
		if _, dup := f.Section(name); dup {
			return nil, fmt.Errorf("duplicate section %q: %w", name, ErrCorrupt)
		}
		f.Add(name, payload[:len(payload):len(payload)])
	}
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("section table: %w", err)
	}
	return f, nil
}

// WriteFileAtomic writes data to path via a same-directory temp file,
// fsync, and rename, so a reader never observes a half-written
// snapshot: it sees the old file, the new file, or (on first write) no
// file — and Decode's trailer check catches the torn-temp case anyway.
func WriteFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return err
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return err
	}
	return nil
}

// ReadFile reads and decodes the snapshot at path. A missing file is
// reported via the ordinary fs.ErrNotExist chain, distinct from the
// decode taxonomy, so callers can treat "no snapshot yet" separately
// from "snapshot damaged".
func ReadFile(path string) (*File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	f, err := Decode(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}
