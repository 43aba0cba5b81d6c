// Fixture model of the real internal/checkpoint walker: just enough
// surface (a Codec with fixed-width walk methods) for snapsym fixtures
// to type-check under the package's real import path.
package checkpoint

type Codec struct{ decoding bool }

func (c *Codec) Decoding() bool { return c.decoding }
func (c *Codec) U32(p *uint32)  {}
func (c *Codec) U64(p *uint64)  {}
