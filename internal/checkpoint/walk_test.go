package checkpoint

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
)

type walkSample struct {
	a      uint8
	b      uint32
	c      uint64
	on     bool
	name   string
	rec    [4]byte
	cycle  named64
	n      int
	list   []uint64
	hashes map[uint64]uint64
}

type named64 uint64

func (s *walkSample) walk(c *Codec) {
	c.U8(&s.a)
	c.U32(&s.b)
	c.U64(&s.c)
	c.Bool(&s.on)
	c.String(&s.name)
	c.Bytes(s.rec[:])
	Uint64(c, &s.cycle)
	Uint32(c, &s.n)
	c.Want32("geometry", 7)
	n := len(s.list)
	c.Len(&n, 8, 8)
	if c.Decoding() {
		s.list = make([]uint64, n)
	}
	for i := range s.list {
		c.Index(&s.list[i], 100)
	}
	Map(c, &s.hashes, 1<<20, 8, (*Codec).U64)
}

// TestWalkRoundTrip: one walk encodes a value and decodes it back into a
// zero value, and the decoded value re-encodes to the same bytes.
func TestWalkRoundTrip(t *testing.T) {
	want := walkSample{
		a: 1, b: 2, c: 3, on: true, name: "plutus", rec: [4]byte{9, 8, 7, 6},
		cycle: 12345, n: 42, list: []uint64{5, 99, 0}, hashes: map[uint64]uint64{70: 1, 3: 2, 1 << 19: 3},
	}
	data, err := Marshal(want.walk)
	if err != nil {
		t.Fatal(err)
	}
	var got walkSample
	if err := Unmarshal(data, got.walk); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", got, want)
	}
	again, err := Marshal(got.walk)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, data) {
		t.Fatal("re-encoding a decoded value changed its bytes")
	}
}

// TestWalkBounds: every decoded count, index, geometry value and record
// length is checked, and the first failure sticks.
func TestWalkBounds(t *testing.T) {
	cases := []struct {
		name string
		enc  func(e *Encoder)
		walk func(c *Codec)
		want error
	}{
		{"count over max", func(e *Encoder) { e.U64(9) },
			func(c *Codec) { var n int; c.Len(&n, 8, 0) }, ErrCorrupt},
		{"count over bytes left", func(e *Encoder) { e.U32(3); e.U64(0) },
			func(c *Codec) { var n int; c.Len32(&n, 1<<30, 8) }, ErrCorrupt},
		{"index at limit", func(e *Encoder) { e.U64(100) },
			func(c *Codec) { var i uint64; c.Index(&i, 100) }, ErrCorrupt},
		{"u32 index at limit", func(e *Encoder) { e.U32(4) },
			func(c *Codec) { var i int; c.Index32(&i, 4) }, ErrCorrupt},
		{"geometry", func(e *Encoder) { e.U64(8) },
			func(c *Codec) { c.Want64("units", 9) }, ErrMismatch},
		{"record length", func(e *Encoder) { e.Bytes([]byte{1, 2, 3}) },
			func(c *Codec) { c.Bytes(make([]byte, 4)) }, ErrCorrupt},
		{"map key", func(e *Encoder) { e.U64(1); e.U64(5); e.U64(0) },
			func(c *Codec) { var m map[uint64]uint64; Map(c, &m, 5, 8, (*Codec).U64) }, ErrCorrupt},
	}
	for _, tc := range cases {
		e := NewEncoder()
		tc.enc(e)
		if err := Unmarshal(e.Data(), tc.walk); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
}

// TestWalkErrorsStick: after a failure every later read yields zero, and
// an encoding walk that fails returns no bytes.
func TestWalkErrorsStick(t *testing.T) {
	e := NewEncoder()
	e.U64(1 << 40)
	e.U64(77)
	var v uint64 = 5
	err := Unmarshal(e.Data(), func(c *Codec) {
		var n int
		c.Len(&n, 10, 0)
		c.U64(&v)
	})
	if !errors.Is(err, ErrCorrupt) || v != 0 {
		t.Fatalf("err = %v, v = %d; want ErrCorrupt and a zero read", err, v)
	}
	data, err := Marshal(func(c *Codec) {
		c.Fail(ErrNotQuiescent)
		c.U64(&v)
	})
	if data != nil || !errors.Is(err, ErrNotQuiescent) {
		t.Fatalf("Marshal = %d bytes, %v; want nil, ErrNotQuiescent", len(data), err)
	}
}
