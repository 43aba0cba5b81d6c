// Fixture: internal/harness is not sim-critical — no checkpointed
// simulation state lives here — so snapsym does not apply and even a
// walk that skips a field is left alone.
package harness

import "internal/checkpoint"

type runRecord struct {
	cycles uint64
	label  uint64
}

func (r *runRecord) Codec(c *checkpoint.Codec) {
	c.U64(&r.cycles)
}
