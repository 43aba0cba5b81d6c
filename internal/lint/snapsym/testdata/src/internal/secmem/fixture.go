// Fixture: Codec walks in a sim-critical package (modelled as
// internal/secmem). Covers a fully walked type with an ignored field, an
// omitted field, a reference inside a closure, a Codec that takes an
// extra bound, and a helper not named Codec.
package secmem

import "internal/checkpoint"

// Walked is the sanctioned shape: every field is walked, and transient
// scratch is exempted with a reasoned directive on its declaration.
type Walked struct {
	epoch   uint64
	dirty   uint32
	scratch []byte //simlint:ignore snapsym per-request scratch, dead at quiescent snapshot points
}

func (w *Walked) Codec(c *checkpoint.Codec) {
	c.U64(&w.epoch)
	c.U32(&w.dirty)
}

// Omitted never walks dropped: state that silently resets on every
// resume. It is reported at the field declaration, where the exemption
// directive would live.
type Omitted struct {
	kept    uint64
	dropped uint64 // want `field Omitted\.dropped is not walked by Codec`
}

func (o *Omitted) Codec(c *checkpoint.Codec) {
	c.U64(&o.kept)
}

// Closure walks its words inside a func literal, which counts, and takes
// an index bound besides the codec, which does not change the check.
type Closure struct {
	words []uint64
	n     uint32
}

func (f *Closure) Codec(c *checkpoint.Codec, limit uint64) {
	c.U32(&f.n)
	each(func() {
		for i := range f.words {
			c.U64(&f.words[i])
		}
	})
}

func each(fn func()) { fn() }

// Helper's walk is split into a method not named Codec, which is not
// checked, so the fields only the helper reaches count as unwalked in
// Codec itself.
type Helper struct {
	a uint64
	b uint64 // want `field Helper\.b is not walked by Codec`
}

func (h *Helper) Codec(c *checkpoint.Codec) {
	c.U64(&h.a)
	h.walkRest(c)
}

func (h *Helper) walkRest(c *checkpoint.Codec) {
	c.U64(&h.b)
}
