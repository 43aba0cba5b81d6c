package checkpoint

import "fmt"

// Codec walks one section's fields in wire order, encoding or decoding.
// A type describes its layout once, in one walk over pointers to its
// fields: encoding reads through each pointer, decoding stores through
// it. The walk order is the wire layout.
//
// Every count and index a walk decodes is bounded here, before anything
// is allocated from it: Len rejects a count above a caller-given
// maximum or one the bytes left cannot hold, and Index rejects an index
// at or past its limit. Both fail with ErrCorrupt.
//
// Errors are sticky. After the first failure — a short read, a bound, a
// geometry cross-check, or an error a walk reports through Fail — every
// later read yields zero, and the caller checks once at the end.
type Codec struct {
	e   *Encoder
	d   *Decoder
	err error // encoding only; a decoding walk keeps its error in d
}

// Marshal runs walk encoding and returns the bytes, or the first error
// the walk recorded.
func Marshal(walk func(*Codec)) ([]byte, error) {
	c := &Codec{e: NewEncoder()}
	walk(c)
	if c.err != nil {
		return nil, c.err
	}
	return c.e.Data(), nil
}

// Unmarshal runs walk decoding p. It fails with the walk's first error,
// or with ErrCorrupt if the walk leaves bytes unread.
func Unmarshal(p []byte, walk func(*Codec)) error {
	c := &Codec{d: NewDecoder(p)}
	walk(c)
	return c.d.Finish()
}

// Decoding reports whether the walk decodes. Walks need it only where
// the in-memory shape differs from the wire shape.
func (c *Codec) Decoding() bool { return c.d != nil }

// Err returns the walk's first error, or nil.
func (c *Codec) Err() error {
	if c.d != nil {
		return c.d.err
	}
	return c.err
}

// Fail records err unless the walk already failed.
func (c *Codec) Fail(err error) {
	switch {
	case c.d != nil && c.d.err == nil:
		c.d.err = err
	case c.d == nil && c.err == nil:
		c.err = err
	}
}

// Corrupt records a decoding failure wrapping ErrCorrupt.
func (c *Codec) Corrupt(format string, args ...any) {
	c.Fail(fmt.Errorf(format+": %w", append(args, ErrCorrupt)...))
}

// U8 walks one byte.
func (c *Codec) U8(p *uint8) {
	if c.d != nil {
		*p = c.d.U8()
	} else {
		c.e.U8(*p)
	}
}

// U32 walks a little-endian uint32.
func (c *Codec) U32(p *uint32) {
	if c.d != nil {
		*p = c.d.U32()
	} else {
		c.e.U32(*p)
	}
}

// U64 walks a little-endian uint64.
func (c *Codec) U64(p *uint64) {
	if c.d != nil {
		*p = c.d.U64()
	} else {
		c.e.U64(*p)
	}
}

// Bool walks a bool as one byte; decoding any byte other than 0 or 1 is
// ErrCorrupt.
func (c *Codec) Bool(p *bool) {
	if c.d != nil {
		*p = c.d.Bool()
	} else {
		c.e.Bool(*p)
	}
}

// String walks a u32-length-prefixed string.
func (c *Codec) String(p *string) {
	if c.d != nil {
		*p = c.d.String()
	} else {
		c.e.String(*p)
	}
}

// Bytes walks p as a u32 length prefix and the bytes. The length is
// fixed by the caller: decoding fails with ErrCorrupt unless the prefix
// is len(p), and fills p in place.
func (c *Codec) Bytes(p []byte) {
	if c.d == nil {
		c.e.Bytes(p)
		return
	}
	if n := c.d.U32(); c.d.err == nil && int(n) != len(p) {
		c.Corrupt("record of %d bytes at offset %d, want %d", n, c.d.off-4, len(p))
	}
	copy(p, c.d.take(len(p)))
}

// Uint64 walks a named integer type as a u64.
func Uint64[T ~uint64 | ~int](c *Codec, p *T) {
	v := uint64(*p)
	c.U64(&v)
	*p = T(v)
}

// Uint32 walks a named integer type as a u32.
func Uint32[T ~uint32 | ~int](c *Codec, p *T) {
	v := uint32(*p)
	c.U32(&v)
	*p = T(v)
}

// Uint8 walks a named integer type as one byte.
func Uint8[T ~uint8](c *Codec, p *T) {
	v := uint8(*p)
	c.U8(&v)
	*p = T(v)
}

// Len walks an element count as a u64. Decoding fails with ErrCorrupt
// when the count exceeds max, or when the bytes left cannot hold that
// many elements of at least elem bytes each.
func (c *Codec) Len(n *int, max uint64, elem int) { c.count(n, max, elem, false) }

// Len32 is Len for a count written as a u32.
func (c *Codec) Len32(n *int, max uint64, elem int) { c.count(n, max, elem, true) }

func (c *Codec) count(n *int, max uint64, elem int, narrow bool) {
	if c.d == nil {
		if narrow {
			c.e.U32(uint32(*n))
		} else {
			c.e.U64(uint64(*n))
		}
		return
	}
	at := c.d.off
	var v uint64
	if narrow {
		v = uint64(c.d.U32())
	} else {
		v = c.d.U64()
	}
	left := uint64(len(c.d.buf) - c.d.off)
	switch {
	case c.d.err != nil:
		v = 0
	case v > max:
		c.Corrupt("count %d at offset %d exceeds %d", v, at, max)
		v = 0
	case elem > 0 && v > left/uint64(elem):
		c.Corrupt("count %d at offset %d needs %d-byte elements, %d bytes left", v, at, elem, left)
		v = 0
	}
	*n = int(v)
}

// Index walks an index as a u64. Decoding fails with ErrCorrupt when it
// is at or past limit.
func (c *Codec) Index(p *uint64, limit uint64) {
	c.U64(p)
	if c.d != nil && c.d.err == nil && *p >= limit {
		c.Corrupt("index %d at offset %d is out of range %d", *p, c.d.off-8, limit)
		*p = 0
	}
}

// Index32 is Index for an index written as a u32.
func (c *Codec) Index32(p *int, limit int) {
	Uint32(c, p)
	if c.d != nil && c.d.err == nil && *p >= limit {
		c.Corrupt("index %d at offset %d is out of range %d", *p, c.d.off-4, limit)
		*p = 0
	}
}

// Want8, Want32 and Want64 cross-check geometry the restoring side
// rebuilds from its own configuration: encoding writes v, and decoding
// fails with ErrMismatch unless v reads back. what names the value.
func (c *Codec) Want8(what string, v uint8) {
	got := v
	c.U8(&got)
	c.want(what, uint64(got), uint64(v))
}

// Want32 is Want8 for a u32.
func (c *Codec) Want32(what string, v uint32) {
	got := v
	c.U32(&got)
	c.want(what, uint64(got), uint64(v))
}

// Want64 is Want8 for a u64.
func (c *Codec) Want64(what string, v uint64) {
	got := v
	c.U64(&got)
	c.want(what, got, v)
}

func (c *Codec) want(what string, got, v uint64) {
	if c.d != nil && c.d.err == nil && got != v {
		c.Fail(fmt.Errorf("%s: snapshot has %d, this run has %d: %w", what, got, v, ErrMismatch))
	}
}

// Map walks *m as a count, then each (key, value) pair in ascending key
// order, every value walked by val. Keys are indices below limit, and
// elem is a value's minimum wire size. Decoding replaces *m with a fresh
// map.
func Map[K ~uint64, V any](c *Codec, m *map[K]V, limit K, elem int, val func(*Codec, *V)) {
	n := len(*m)
	c.Len(&n, uint64(limit), 8+elem)
	if c.d == nil {
		for _, k := range SortedKeys(*m) {
			key, v := uint64(k), (*m)[k]
			c.U64(&key)
			val(c, &v)
		}
		return
	}
	out := make(map[K]V, n)
	for ; n > 0 && c.d.err == nil; n-- {
		var key uint64
		var v V
		c.Index(&key, uint64(limit))
		val(c, &v)
		out[K(key)] = v
	}
	*m = out
}
