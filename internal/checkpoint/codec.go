package checkpoint

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"sort"
)

// Encoder serializes checkpoint state as fixed-width little-endian
// fields. There is no reflection and no schema: identical writes always
// encode to identical bytes. Snapshot sections, the trace header and
// footer, and the value model are written through a Codec walk; only
// trace chunk records use a Decoder directly.
type Encoder struct {
	buf bytes.Buffer
}

// NewEncoder returns an empty Encoder.
func NewEncoder() *Encoder { return &Encoder{} }

// Data returns the bytes encoded so far. The slice aliases the
// encoder's buffer; callers hand it to File.Add and stop appending.
func (e *Encoder) Data() []byte { return e.buf.Bytes() }

// Len returns the number of bytes encoded so far.
func (e *Encoder) Len() int { return e.buf.Len() }

// U8 appends one byte.
func (e *Encoder) U8(v uint8) { e.buf.WriteByte(v) }

// U32 appends a little-endian uint32.
func (e *Encoder) U32(v uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	e.buf.Write(b[:])
}

// U64 appends a little-endian uint64.
func (e *Encoder) U64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	e.buf.Write(b[:])
}

// Bool appends a bool as one byte (0 or 1).
func (e *Encoder) Bool(v bool) {
	if v {
		e.U8(1)
	} else {
		e.U8(0)
	}
}

// Bytes appends a u32 length prefix followed by p.
func (e *Encoder) Bytes(p []byte) {
	e.U32(uint32(len(p)))
	e.buf.Write(p)
}

// String appends s with a u32 length prefix.
func (e *Encoder) String(s string) {
	e.U32(uint32(len(s)))
	e.buf.WriteString(s)
}

// Decoder reads fields written by Encoder. Errors are sticky: after the
// first failed read every subsequent read returns a zero value, so a
// decode body can run straight through and check Err (or Finish) once.
type Decoder struct {
	buf []byte
	off int
	err error
}

// NewDecoder returns a Decoder over p.
func NewDecoder(p []byte) *Decoder { return &Decoder{buf: p} }

func (d *Decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if d.off+n > len(d.buf) || d.off+n < d.off {
		d.err = fmt.Errorf("decode past end at offset %d (want %d of %d bytes): %w",
			d.off, n, len(d.buf), ErrCorrupt)
		return nil
	}
	p := d.buf[d.off : d.off+n]
	d.off += n
	return p
}

// U8 reads one byte.
func (d *Decoder) U8() uint8 {
	p := d.take(1)
	if p == nil {
		return 0
	}
	return p[0]
}

// U32 reads a little-endian uint32.
func (d *Decoder) U32() uint32 {
	p := d.take(4)
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(p)
}

// U64 reads a little-endian uint64.
func (d *Decoder) U64() uint64 {
	p := d.take(8)
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(p)
}

// Bool reads one byte as a bool; any value other than 0 or 1 is a
// corruption error.
func (d *Decoder) Bool() bool {
	switch d.U8() {
	case 0:
		return false
	case 1:
		return true
	default:
		if d.err == nil {
			d.err = fmt.Errorf("invalid bool byte at offset %d: %w", d.off-1, ErrCorrupt)
		}
		return false
	}
}

// Bytes reads a u32-length-prefixed byte slice. The result is a copy.
func (d *Decoder) Bytes() []byte {
	n := d.U32()
	p := d.take(int(n))
	if p == nil {
		return nil
	}
	out := make([]byte, len(p))
	copy(out, p)
	return out
}

// String reads a u32-length-prefixed string.
func (d *Decoder) String() string {
	n := d.U32()
	p := d.take(int(n))
	if p == nil {
		return ""
	}
	return string(p)
}

// Err returns the first decode error, or nil.
func (d *Decoder) Err() error { return d.err }

// Finish returns the first decode error; if none, it additionally
// requires that every byte was consumed — trailing garbage in a section
// means the encoder and decoder disagree on the schema.
func (d *Decoder) Finish() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.buf) {
		return fmt.Errorf("%d trailing bytes after decode: %w", len(d.buf)-d.off, ErrCorrupt)
	}
	return nil
}

// SortedKeys returns m's keys in ascending order. Every map a package
// serializes must be walked through this (or an equivalent explicit
// sort) so the encoding never observes Go's randomized map iteration
// order — the maporder analyzer enforces the discipline.
func SortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}
