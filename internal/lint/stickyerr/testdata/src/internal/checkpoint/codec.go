// Fixture model of the real internal/checkpoint codec surface used by
// the stickyerr fixtures: Encoder/Decoder handles plus error-returning
// helpers in the shapes the real snapshot code uses.
package checkpoint

import "errors"

var ErrCorrupt = errors.New("corrupt")

type Encoder struct{ buf []byte }

func (e *Encoder) U64(v uint64) { e.buf = append(e.buf, byte(v)) }
func (e *Encoder) U32(v uint32) { e.buf = append(e.buf, byte(v)) }

type Decoder struct {
	off int
	err error
}

func (d *Decoder) U64() uint64 { return 0 }
func (d *Decoder) U32() uint32 { return 0 }
func (d *Decoder) Err() error  { return d.err }
func (d *Decoder) Finish() error {
	if d.err != nil {
		return d.err
	}
	return nil
}

type Codec struct{ err error }

func (c *Codec) U64(p *uint64)  {}
func (c *Codec) Decoding() bool { return false }
func (c *Codec) Fail(err error) { c.err = err }
