// Fixture: sticky-error discipline in codec functions of a sim-critical
// package. Covers dropped, shadowed, overwritten, never-checked, and
// clean cases; functions that never touch a codec value are out of
// scope even when they drop errors.
package secmem

import (
	"bytes"

	"internal/checkpoint"
)

type store struct {
	a, b uint64
}

func (s *store) snapshotPiece(enc *checkpoint.Encoder) error {
	enc.U64(s.a)
	return nil
}

func (s *store) restorePiece(dec *checkpoint.Decoder) error {
	s.a = dec.U64()
	return dec.Err()
}

// dropped: the sub-object's Snapshot error vanishes — exactly the bug
// class where a torn snapshot encodes "successfully".
func (s *store) Snapshot(enc *checkpoint.Encoder) error {
	s.snapshotPiece(enc) // want `error returned by s\.snapshotPiece is dropped`
	enc.U64(s.b)
	return nil
}

// blankDiscard: explicitly discarding the error is the same bug with a
// fig leaf.
func (s *store) blankDiscard(dec *checkpoint.Decoder) error {
	_ = dec.Finish() // want `error result discarded with _`
	return nil
}

// shadowed: the inner := hides an error that nobody has checked yet;
// the outer value is dead the moment the shadow appears.
func (s *store) shadowed(dec *checkpoint.Decoder) error {
	err := dec.Finish()
	if s.a != 0 {
		err := s.restorePiece(dec) // want `err shadows an error that has not been checked yet`
		if err != nil {
			return err
		}
	}
	return err
}

// overwritten: a straight-line reassignment with no check in between
// loses the first error.
func (s *store) overwritten(dec *checkpoint.Decoder) error {
	err := s.restorePiece(dec)
	err = dec.Finish() // want `error err is overwritten before it is checked`
	return err
}

// neverChecked: assigned, then silenced with a blank discard — the
// compiler is happy, the error is still never looked at.
func (s *store) neverChecked(dec *checkpoint.Decoder) uint64 {
	err := dec.Finish() // want `error err is assigned but never checked`
	_ = err
	s.a = dec.U64()
	return s.a
}

// checked is the sanctioned shape: run straight through, check once;
// re-assignment after a check is fine, as is the if-init idiom.
func (s *store) checked(dec *checkpoint.Decoder) error {
	err := s.restorePiece(dec)
	if err != nil {
		return err
	}
	err = dec.Finish()
	if err != nil {
		return err
	}
	if err := dec.Err(); err != nil {
		return err
	}
	return nil
}

// suppressedDrop proves the escape hatch: a reasoned directive keeps a
// deliberate drop.
func (s *store) suppressedDrop(enc *checkpoint.Encoder) {
	s.snapshotPiece(enc) //simlint:ignore stickyerr fixture-only: best-effort debug dump, failure is acceptable
}

// infallible: bytes.Buffer writes are documented to always succeed, so
// dropping their error results is exempt even in a codec function.
func (s *store) infallible(enc *checkpoint.Encoder) {
	var buf bytes.Buffer
	buf.WriteByte(1)
	buf.Write([]byte{2, 3})
	enc.U64(uint64(buf.Len()))
}

// notCodec never touches a codec value, so the dropped error here is
// another analyzer's business (errcheck-style linting module-wide is
// out of scope).
func (s *store) notCodec() {
	s.plainErr()
}

func (s *store) plainErr() error { return nil }

// cursor stands in for a workload whose rewind can fail.
type cursor struct{ pos uint64 }

func (u *cursor) rewind(pos uint64) error { u.pos = pos; return nil }

// Codec walks drop errors just like Encoder/Decoder bodies: a rewind
// whose failure never reaches the codec leaves a decode that "succeeds".
func (s *store) Codec(c *checkpoint.Codec, u *cursor) {
	c.U64(&s.a)
	if c.Decoding() {
		u.rewind(s.a) // want `error returned by u\.rewind is dropped`
	}
	if err := u.rewind(s.b); err != nil {
		c.Fail(err)
	}
}
